"""Gauss rules on the reference cell, cut cell parts and interface arcs.

Cut cells are integrated in polar coordinates around the circle center:
every ray from the center meets the (convex) cell in one interval, which is
clipped at the circle radius to yield the fluid or solid part.  Splitting
the angular range at the cell corner angles and the interface crossing
angles makes the radial bounds smooth per panel, so tensor Gauss rules
converge spectrally and all weights stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import CutTopology, Mesh


@dataclass(frozen=True)
class QuadratureRule:
    """Points (physical coordinates) and positive weights for one region."""

    points: np.ndarray   # (npts, 2)
    weights: np.ndarray  # (npts,)
    normals: np.ndarray | None = None  # set for interface rules

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


@lru_cache(maxsize=None)
def gauss_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]; exact for degree <= 2*npts - 1.

    Cached; the returned arrays are shared and read-only.
    """
    if not 1 <= npts <= 64:
        raise ValueError("npts must be in [1, 64]")
    x, w = np.polynomial.legendre.leggauss(npts)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def reference_cell_rule(npts: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit square (reference coordinates, weights sum 1)."""
    x, w = gauss_1d(npts)
    X, Y = np.meshgrid(x, x, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel()


@dataclass(frozen=True)
class CutParts:
    """Cut-cell rules of one side, concatenated.

    The rule of ``cells[i]`` is ``points[offsets[i]:offsets[i + 1]]`` with
    the same slice of ``weights``.
    """

    cells: np.ndarray    # (ncut,)
    points: np.ndarray   # (npts, 2)
    weights: np.ndarray  # (npts,)
    offsets: np.ndarray  # (ncut + 1,)

    def batches(self, max_points: int = 8192):
        """(cells, points (b, q, 2), weights (b, q)) over batches of whole cells.

        Each batch is padded to its largest rule by repeating a cell's last
        point with weight zero, so padded tables stay finite and add nothing
        to an integral.  Cells go in order of their point count, which keeps
        the padding small, and a batch holds at most max_points padded points
        (at least one cell), which bounds the memory of its tables.
        """
        counts = np.diff(self.offsets)
        order = np.argsort(counts, kind="stable")
        step = max(1, max_points // max(counts.max(initial=0), 1))
        for s in range(0, len(order), step):
            idx = order[s:s + step]
            j = np.arange(counts[idx].max())
            take = self.offsets[idx, None] + np.minimum(j, counts[idx, None] - 1)
            yield (self.cells[idx], self.points[take],
                   np.where(j < counts[idx, None], self.weights[take], 0.0))


def _ray_cell_interval(origin, h, center, ct, st):
    """Intersections [rho_in, rho_out] of the rays center + rho*(ct, st) with
    cells, for arrays of directions; ``origin`` (..., 2) broadcasts against
    them.  ``hit`` is False where a ray misses its cell."""
    lo = np.zeros(np.shape(ct))
    hi = np.full(np.shape(ct), np.inf)
    hit = np.ones(np.shape(ct), dtype=bool)
    for axis, d in ((0, ct), (1, st)):
        a = origin[..., axis]
        b = a + h
        c = center[axis]
        flat = np.abs(d) < 1e-15
        hit &= ~flat | ((a <= c) & (c <= b))
        with np.errstate(divide="ignore", invalid="ignore"):
            t1, t2 = (a - c) / d, (b - c) / d
        lo = np.where(flat, lo, np.maximum(lo, np.minimum(t1, t2)))
        hi = np.where(flat, hi, np.minimum(hi, np.maximum(t1, t2)))
    return lo, hi, hit & (lo < hi)


def cut_cell_rule(mesh: Mesh, topo: CutTopology, cells, side: str,
                  npts: int = 8) -> CutParts:
    """Quadrature over K_f or K_s of cut cells (polar panel decomposition).

    The angular range of a cell, seen from the circle center, is split at
    its corner angles and arc ends into at most seven panels.  Every panel
    carries npts rays and every ray npts radial points.  All cells are
    handled at once on padded (cells, panels, rays) tables; the points of a
    cell are ray-major.  Cells whose part is empty are left out.
    """
    cells = np.asarray(cells, dtype=int)
    ls = topo.level_set
    c, r = ls.center, ls.radius
    gx, gw = gauss_1d(npts)
    # arc ends, the second arc of a one-arc cell repeating its first
    lo, hi = np.searchsorted(topo.arc_cells, [cells, cells + 1])
    if np.any(lo == hi):
        raise ValueError(f"cell {cells[np.argmax(lo == hi)]} is not cut")
    ends = topo.arcs[np.stack([lo, hi - 1], axis=1)].reshape(-1, 4)
    # corner angles unwrapped near the first arc's midpoint, so the extent is
    # contiguous
    mid = 0.5 * (ends[:, :1] + ends[:, 1:2])
    origin = mesh.cell_origin(cells)
    corners = mesh.cell_corners(cells) - c
    ang = np.arctan2(corners[..., 1], corners[..., 0])
    ang = mid + np.mod(ang - mid + np.pi, 2.0 * np.pi) - np.pi
    brk = np.sort(np.concatenate([ang, ends], axis=1), axis=1)
    t0, dth = brk[:, :-1], np.diff(brk, axis=1)
    # (cell, panel, ray) grids of angles and angular weights
    th = t0[..., None] + dth[..., None] * gx
    wth = dth[..., None] * gw
    ct, st = np.cos(th), np.sin(th)
    rin, rout, hit = _ray_cell_interval(origin[:, None, None, :], mesh.h, c, ct, st)
    if side == "s":
        rout = np.minimum(rout, r)
    else:
        rin = np.maximum(rin, r)
    hit &= (dth >= 1e-14)[..., None] & (rout - rin >= 1e-15)
    hit &= (topo.kappa(side)[cells] >= 1e-14)[:, None, None]
    rin, rout, wth, ct, st = rin[hit], rout[hit], wth[hit], ct[hit], st[hit]
    rho = rin[:, None] + (rout - rin)[:, None] * gx[None, :]
    w = wth[:, None] * (rout - rin)[:, None] * gw[None, :] * rho
    points = np.column_stack([(c[0] + rho * ct[:, None]).ravel(),
                              (c[1] + rho * st[:, None]).ravel()])
    counts = npts * hit.sum(axis=(1, 2))
    keep = counts > 0
    return CutParts(cells[keep], points, w.ravel(),
                    np.concatenate([[0], np.cumsum(counts[keep])]))


def interface_rule(mesh: Mesh, topo: CutTopology, cell: int,
                   npts: int = 12) -> QuadratureRule:
    """Gauss rule on the interface arcs inside a cut cell (curve measure),
    npts points per arc.

    Each point carries the outward fluid normal, pointing from the fluid
    into the solid: n_f(x) = -(x - center)/|x - center|.
    """
    arcs = topo.cell_arcs(cell)
    ls = topo.level_set
    r = ls.radius
    gx, gw = gauss_1d(npts)
    arc_angle = (arcs[:, 1] - arcs[:, 0])[:, None]
    th = (arcs[:, :1] + arc_angle * gx).ravel()
    ct, st = np.cos(th), np.sin(th)
    pts = np.column_stack([ls.center[0] + r * ct, ls.center[1] + r * st])
    w = (arc_angle * r * gw).ravel()
    normals = -np.column_stack([ct, st])
    return QuadratureRule(pts, w, normals=normals)

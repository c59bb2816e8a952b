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

from .geometry import CircleLevelSet
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


def _ray_cell_interval(origin, h, center, ct, st):
    """Intersections [rho_in, rho_out] of the rays center + rho*(ct, st) with
    a cell, for arrays of directions; ``hit`` is False where a ray misses."""
    lo = np.zeros(np.shape(ct))
    hi = np.full(np.shape(ct), np.inf)
    hit = np.ones(np.shape(ct), dtype=bool)
    for axis, d in ((0, ct), (1, st)):
        a, b = origin[axis], origin[axis] + h
        c = center[axis]
        flat = np.abs(d) < 1e-15
        if not a <= c <= b:
            hit &= ~flat
        with np.errstate(divide="ignore", invalid="ignore"):
            t1, t2 = (a - c) / d, (b - c) / d
        lo = np.where(flat, lo, np.maximum(lo, np.minimum(t1, t2)))
        hi = np.where(flat, hi, np.minimum(hi, np.maximum(t1, t2)))
    return lo, hi, hit & (lo < hi)


def _polar_panels(mesh: Mesh, topo: CutTopology, cell: int):
    """Angular breakpoints for a cut cell as seen from the circle center."""
    seg = topo.segments[cell]
    c = topo.level_set.center
    corners = mesh.cell_corners(cell) - c
    ang = np.arctan2(corners[:, 1], corners[:, 0])
    # unwrap corner angles near the arc midpoint so the extent is contiguous
    mid = 0.5 * (seg.theta0 + seg.theta1)
    ang = mid + np.mod(ang - mid + np.pi, 2.0 * np.pi) - np.pi
    brk = np.unique(np.concatenate([ang, [seg.theta0, seg.theta1]]))
    return brk


def cut_cell_rule(mesh: Mesh, topo: CutTopology, cell: int, side: str,
                  npts: int = 8) -> QuadratureRule:
    """Quadrature over K_f or K_s of a cut cell (polar panel decomposition).

    Every panel carries npts rays and every ray npts radial points; all
    rays of the cell are handled at once, ray-major.
    """
    if cell not in topo.segments:
        raise ValueError(f"cell {cell} is not cut")
    empty = QuadratureRule(np.zeros((0, 2)), np.zeros(0))
    frac = topo.kappa_s[cell] if side == "s" else topo.kappa_f[cell]
    if frac * mesh.h ** 2 < 1e-14 * mesh.h ** 2:
        return empty
    ls = topo.level_set
    r = ls.radius
    brk = _polar_panels(mesh, topo, cell)
    gx, gw = gauss_1d(npts)
    t0, dth = brk[:-1], np.diff(brk)
    keep = dth >= 1e-14
    t0, dth = t0[keep], dth[keep]
    # (panel, ray) grids of angles and angular weights, flattened ray-major
    th = (t0[:, None] + dth[:, None] * gx[None, :]).ravel()
    wth = (dth[:, None] * gw[None, :]).ravel()
    ct, st = np.cos(th), np.sin(th)
    rin, rout, hit = _ray_cell_interval(mesh.cell_origin(cell), mesh.h,
                                        ls.center, ct, st)
    if side == "s":
        rout = np.minimum(rout, r)
    else:
        rin = np.maximum(rin, r)
    hit &= rout - rin >= 1e-15
    rin, rout, wth, ct, st = rin[hit], rout[hit], wth[hit], ct[hit], st[hit]
    if not len(rin):
        return empty
    rho = rin[:, None] + (rout - rin)[:, None] * gx[None, :]
    w = wth[:, None] * (rout - rin)[:, None] * gw[None, :] * rho
    points = np.column_stack([(ls.center[0] + rho * ct[:, None]).ravel(),
                              (ls.center[1] + rho * st[:, None]).ravel()])
    return QuadratureRule(points, w.ravel())


def interface_rule(mesh: Mesh, topo: CutTopology, cell: int,
                   npts: int = 12) -> QuadratureRule:
    """Gauss rule on the interface arc inside a cut cell (curve measure).

    Each point carries the outward fluid normal, pointing from the fluid
    into the solid: n_f(x) = -(x - center)/|x - center|.
    """
    seg = topo.segments[cell]
    ls = topo.level_set
    r = ls.radius
    gx, gw = gauss_1d(npts)
    th = seg.theta0 + seg.arc_angle * gx
    ct, st = np.cos(th), np.sin(th)
    pts = np.column_stack([ls.center[0] + r * ct, ls.center[1] + r * st])
    w = seg.arc_angle * r * gw
    normals = -np.column_stack([ct, st])
    return QuadratureRule(pts, w, normals=normals)

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


def gauss_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1]; exact for degree <= 2*npts - 1."""
    if not 1 <= npts <= 64:
        raise ValueError("npts must be in [1, 64]")
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def reference_cell_rule(npts: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit square (reference coordinates, weights sum 1)."""
    x, w = gauss_1d(npts)
    X, Y = np.meshgrid(x, x, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()]), np.outer(w, w).ravel()


def _ray_cell_interval(origin, h, center, ct, st):
    """Intersection [rho_in, rho_out] of the ray center + rho*(ct,st) with a cell."""
    lo, hi = 0.0, np.inf
    for axis, d in ((0, ct), (1, st)):
        a, b = origin[axis], origin[axis] + h
        c = center[axis]
        if abs(d) < 1e-15:
            if not (a <= c <= b):
                return None
        else:
            t1, t2 = (a - c) / d, (b - c) / d
            if t1 > t2:
                t1, t2 = t2, t1
            lo, hi = max(lo, t1), min(hi, t2)
    if lo >= hi:
        return None
    return lo, hi


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
    """Quadrature over K_f or K_s of a cut cell (polar panel decomposition)."""
    if cell not in topo.segments:
        raise ValueError(f"cell {cell} is not cut")
    ls = topo.level_set
    r = ls.radius
    o = mesh.cell_origin(cell)
    brk = _polar_panels(mesh, topo, cell)
    gx, gw = gauss_1d(npts)
    pts, wts = [], []
    for t0, t1 in zip(brk[:-1], brk[1:]):
        dth = t1 - t0
        if dth < 1e-14:
            continue
        for xt, wt in zip(gx, gw):
            th = t0 + dth * xt
            ct, st = np.cos(th), np.sin(th)
            iv = _ray_cell_interval(o, mesh.h, ls.center, ct, st)
            if iv is None:
                continue
            rin, rout = iv
            if side == "s":
                rin, rout = rin, min(rout, r)
            else:
                rin, rout = max(rin, r), rout
            if rout - rin < 1e-15:
                continue
            rho = rin + (rout - rin) * gx
            w = dth * wt * (rout - rin) * gw * rho
            pts.append(np.column_stack(
                [ls.center[0] + rho * ct, ls.center[1] + rho * st]))
            wts.append(w)
    if not pts:
        return QuadratureRule(np.zeros((0, 2)), np.zeros(0))
    points = np.vstack(pts)
    weights = np.concatenate(wts)
    frac = topo.kappa_s[cell] if side == "s" else topo.kappa_f[cell]
    if frac * mesh.h ** 2 < 1e-14 * mesh.h ** 2:
        return QuadratureRule(np.zeros((0, 2)), np.zeros(0))
    return QuadratureRule(points, weights)


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

"""Gauss rules on the reference cell, cut cell parts and interface arcs.

The rules of all cut cells, of one side's parts or of the arcs, are each
built in one array pass into one ``CutParts`` record.

The forms integrate polynomials of a known degree per variable, so each
cut part is integrated on a few tensor Gauss nodes of its cell, shared by
all cells, with per-cell weights (``moment_fitted_rule``).  The weights are
fitted to the part's Legendre moments, which ``solid_moments`` takes by the
Gauss-Green theorem on the interface arcs' rules and one closed-form edge
term; a fluid part's moments are its cell's less the solid part's.

``cut_cell_rule`` integrates a cut part in polar coordinates around the
circle center and serves only ``analysis.domain_points`` (the checks and
the error norms): every ray from the center meets the (convex) cell in one
interval, which is clipped at the circle radius to yield the fluid or
solid part.  Splitting the angular range at the cell corner angles and the
interface crossing angles makes the radial bounds smooth per panel, so
tensor Gauss rules converge spectrally and all weights stay positive.
Rays parallel to a cell edge are poles of the radial bounds: a cell's area
is off by up to 5.3e-9 h^2 at 0.5-0.6 h from the center and up to 6e-12 h^2
beyond h, its higher moments by up to 5e-7 h^2, and cut cells within h/2
of the center are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import CutTopology, Mesh

# A cut part of a smaller share of its cell is empty: it gets no rule.
KAPPA_EMPTY = 1e-14
# Gauss points per interface arc.
ARC_NPTS = 12


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
    """Rules of cut cells, concatenated: the parts of one side, or the arcs.

    The rule of ``cells[i]`` is ``points[offsets[i]:offsets[i + 1]]`` with
    the same slice of ``weights``, and ``parts[cell]`` is that rule as a
    one-cell record.  The record is not iterable; its arrays are read whole.
    """

    cells: np.ndarray    # (ncut,)
    points: np.ndarray   # (npts, 2)
    weights: np.ndarray  # (npts,)
    offsets: np.ndarray  # (ncut + 1,)

    __iter__ = None  # else iter() would call __getitem__ with 0, 1, 2, ...

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def __getitem__(self, cell) -> CutParts:
        """The rule of one cell; KeyError if the cell has none."""
        i = np.flatnonzero(self.cells == cell)
        if not len(i):
            raise KeyError(cell)
        lo, hi = self.offsets[i[0]:i[0] + 2]
        return CutParts(self.cells[i[:1]], self.points[lo:hi], self.weights[lo:hi],
                        np.array([0, hi - lo]))


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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    lo, hi = topo.arc_range(cells)
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
    hit &= (topo.kappa(side)[cells] >= KAPPA_EMPTY)[:, None, None]
    rin, rout, wth, ct, st = rin[hit], rout[hit], wth[hit], ct[hit], st[hit]
    rho = rin[:, None] + (rout - rin)[:, None] * gx[None, :]
    w = wth[:, None] * (rout - rin)[:, None] * gw[None, :] * rho
    points = np.column_stack([(c[0] + rho * ct[:, None]).ravel(),
                              (c[1] + rho * st[:, None]).ravel()])
    counts = npts * hit.sum(axis=(1, 2))
    keep = counts > 0
    return CutParts(cells[keep], points, w.ravel(),
                    np.concatenate([[0], np.cumsum(counts[keep])]))


def _legendre(t: np.ndarray, n: int) -> np.ndarray:
    """(..., n, q) Legendre polynomials P_0, ..., P_{n-1} at t (..., q) in
    [-1, 1], by their three-term recurrence."""
    P = [np.ones_like(t), t]
    for k in range(1, n - 1):
        P.append(((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1))
    return np.stack(P[:n], axis=-2)


def solid_moments(mesh: Mesh, topo: CutTopology, arcs: CutParts,
                  npts: int) -> np.ndarray:
    """(cells, npts, npts) Legendre moments of the solid parts of the cut
    cells ``arcs.cells``: entry (b, a) is the integral of P_b(eta) P_a(xi)
    over the cell's part inside the disk, with (xi, eta) the cell mapped to
    [-1, 1]^2.

    Gauss-Green (Sommariva and Vianello, "Gauss-Green cubature and moment
    computation over arbitrary geometries", J. Comput. Appl. Math. 2009):
    the integral of f over the part is that of F n_x over its boundary, for
    dF/dx = f.  With F = (h/2) Q_a(xi) P_b(eta), Q_a the antiderivative of
    P_a that vanishes at -1, the left edge (Q_a = 0) and the horizontal
    edges (n_x = 0) add nothing.  What is left is the cell's arcs, on the
    points of their rule ``arcs`` with n_x = (x - c_x) / r, and the part
    of the right edge inside the disk, where Q_a(1) = 2 for a = 0 and 0
    otherwise, in closed form.
    """
    c, r2 = topo.level_set.center, topo.level_set.radius_squared
    h = mesh.h
    counts = np.diff(arcs.offsets)
    origin = mesh.cell_origin(arcs.cells)
    xi, eta = ((arcs.points[:, k] - np.repeat(origin[:, k], counts)) * (2.0 / h) - 1.0
               for k in (0, 1))
    Q = _antiderivatives(xi, npts)
    wn = arcs.weights * (arcs.points[:, 0] - c[0]) / np.sqrt(r2)
    terms = (0.5 * h * wn) * _legendre(eta, npts)[:, None, :] * Q[None, :, :]
    moments = np.add.reduceat(np.moveaxis(terms, -1, 0), arcs.offsets[:-1], axis=0)
    # the right edge x = x0 + h between the circle's two heights there
    half = np.sqrt(np.maximum(r2 - (origin[:, 0] + h - c[0]) ** 2, 0.0))
    ends = np.clip((c[1] + np.multiply.outer(half, [-1.0, 1.0]) - origin[:, 1:]) * (2.0 / h)
                   - 1.0, -1.0, 1.0)
    Qe = _antiderivatives(ends, npts)  # (cells, npts, 2)
    moments[:, :, 0] += 0.5 * h * h * (Qe[..., 1] - Qe[..., 0])
    return moments


def _antiderivatives(t: np.ndarray, n: int) -> np.ndarray:
    """(..., n, q) Q_0, ..., Q_{n-1} at t (..., q) in [-1, 1], with
    Q_a' = P_a and Q_a(-1) = 0: Q_0 = t + 1 and
    Q_a = (P_{a+1} - P_{a-1}) / (2a + 1)."""
    P = _legendre(t, n + 1)
    a = np.arange(1, n)[:, None]
    return np.concatenate([(t + 1.0)[..., None, :],
                           (P[..., 2:, :] - P[..., :-2, :]) / (2 * a + 1)], axis=-2)


def moment_fitted_rule(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rules on the npts x npts Gauss nodes of cells with the given
    Legendre moments (cells, npts, npts), as from ``solid_moments``:
    (nodes (q, 2), weights (cells, q)).

    The nodes are those of ``reference_cell_rule(npts)``, in reference
    coordinates and shared by all cells.  The weight of a node on a cell is
    the integral over the cell's part of the node's tensor Lagrange
    polynomial, so the rule integrates every polynomial of degree < npts
    in each variable exactly (moment fitting: Mueller, Kummer and
    Oberlack, "Highly accurate surface and volume integration on implicit
    domains by means of moment-fitting", IJNME 2013).  The weights may be
    negative.  The moments are those of the Legendre polynomials, which
    keep their digits where monomials would not; one small matrix turns
    them into those of the Lagrange polynomials.
    """
    npts = moments.shape[-1]
    x, wx = gauss_1d(npts)
    nodes, _ = reference_cell_rule(npts)
    # L_a = sum_k P_k B[k, a] on [0, 1]: the Gauss rule integrates L_a P_k
    # exactly, and P_k^2 integrates to 1 / (2k + 1)
    B = (2 * np.arange(npts) + 1)[:, None] * _legendre(2 * x - 1, npts) * wx
    return nodes, (B.T @ moments @ B).reshape(len(moments), -1)


def interface_rule(mesh: Mesh, topo: CutTopology, cells) -> CutParts:
    """Gauss rules on the interface arcs inside cut cells (curve measure),
    ``ARC_NPTS`` points per arc; the points of a cell are arc-major.

    The record carries no normals: ``CircleLevelSet.normal`` gives the
    outward fluid normal at its points.
    """
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    lo, hi = topo.arc_range(cells)  # one or two arcs per cell
    arcs = topo.arcs[np.stack([lo, hi - 1], axis=1)][np.arange(2) < (hi - lo)[:, None]]
    ls = topo.level_set
    r = ls.radius
    gx, gw = gauss_1d(ARC_NPTS)
    arc_angle = (arcs[:, 1] - arcs[:, 0])[:, None]
    th = (arcs[:, :1] + arc_angle * gx).ravel()
    pts = np.column_stack([ls.center[0] + r * np.cos(th), ls.center[1] + r * np.sin(th)])
    return CutParts(cells, pts, (arc_angle * r * gw).ravel(),
                    np.concatenate([[0], np.cumsum(ARC_NPTS * (hi - lo))]))

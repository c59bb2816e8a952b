"""Per-cell, per-edge and per-ray versions of the batched cut geometry.

The library builds the cut topology and the cut-cell rules with array code
over all cells at once.  These loops do the same work one cell, one edge or
one ray at a time, with the same rules, and serve the tests as oracles.
``rule_moments`` takes the Legendre moments of cut parts from a point rule,
the way the library took them from its polar rules before it took them by
Gauss-Green.
"""

import numpy as np
import pytest

from cutfsi.quadrature import _legendre, gauss_1d


def phi(ls, x):
    """The level set at one point, as ``ls(x)`` evaluates it."""
    d = x - ls.center
    return d[0] * d[0] + d[1] * d[1] - ls.radius_squared


def segment_crossings(ls, a, b):
    """Crossings of one segment [a, b] with the circle, decided by the signs
    of phi at its ends (inside where phi <= 0), solved from the end of
    smaller |phi| and in increasing distance from it.

    Ends on different sides have one crossing, clipped to the segment; it
    is not returned where it is that end and the end lies on the circle.
    Two ends outside have both roots where they lie strictly inside the
    segment and the discriminant is not within round-off of zero; two ends
    inside have none.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    phi_a, phi_b = phi(ls, a), phi(ls, b)
    if abs(phi_b) < abs(phi_a):
        a, b, phi_a, phi_b = b, a, phi_b, phi_a
    d = b - a
    m = a - ls.center
    qa = float(d @ d)
    qb = 2.0 * float(m @ d)
    disc = qb * qb - 4.0 * qa * phi_a
    crosses = disc > 1e-14 * max(abs(qb * qb) + abs(4.0 * qa * phi_a), 1.0)
    one = (phi_a <= 0.0) != (phi_b <= 0.0)
    if not one and not (crosses and phi_a > 0.0):
        return []
    q = -0.5 * (qb + np.copysign(np.sqrt(max(disc, 0.0)), qb))
    t0, t1 = sorted((q / qa, phi_a / q if q != 0.0 else 0.0))
    if one:
        t = min(max(t1 if phi_a <= 0.0 else t0, 0.0), 1.0)
        return [] if t == 0.0 and phi_a == 0.0 else [a + t * d]
    return [a + t0 * d, a + t1 * d] if 0.0 < t0 and t1 < 1.0 else []


def cell_corners(mesh, cell):
    """The corners of one cell, counterclockwise, as mesh vertices."""
    return mesh.vertices[mesh.cell_vertices[cell]]


def cell_crossings(mesh, ls, cell):
    """Crossings on the boundary of one cell: those of its edges, and each
    corner with phi = 0 where an edge of the cell whose ends differ in sign
    has its root (the edge returns none)."""
    corners = cell_corners(mesh, cell)
    edges = [segment_crossings(ls, corners[e], corners[(e + 1) % 4]) for e in range(4)]
    inside = [phi(ls, p) <= 0.0 for p in corners]
    lost = [inside[e] != inside[(e + 1) % 4] and not edges[e] for e in range(4)]
    return ([corners[e] for e in range(4) if phi(ls, corners[e]) == 0.0 and (lost[e] or lost[e - 1])]
            + [p for crossings in edges for p in crossings])


def arc_intervals(mesh, ls, cell, crossings):
    """Angular intervals of the arcs inside one cell, on one branch.

    The sorted crossing angles split the circle into intervals that
    alternate between inside and outside the cell; the midpoint of the
    first one decides which alternate set is inside.
    """
    c, r, h = ls.center, ls.radius, mesh.h
    th = sorted(float(np.arctan2(p[1] - c[1], p[0] - c[0])) for p in crossings)
    o = mesh.cell_origin(cell)
    mid = 0.5 * (th[0] + th[1])
    x = c + r * np.array([np.cos(mid), np.sin(mid)])
    first_in = all(o[i] - 1e-12 <= x[i] <= o[i] + h + 1e-12 for i in range(2))
    cyc = th + [th[0] + 2.0 * np.pi]
    s = 0 if first_in else 1
    arcs = [(cyc[s + 2 * i], cyc[s + 2 * i + 1]) for i in range(len(th) // 2)]
    t0 = arcs[0][0]
    return [(a - 2.0 * np.pi * round((a - t0) / (2.0 * np.pi)),
             b - 2.0 * np.pi * round((a - t0) / (2.0 * np.pi))) for a, b in arcs]


def solid_polygon_area(mesh, ls, cell):
    """Shoelace area of the chord polygon of the solid part of a cell: its
    corners with phi <= 0 and the crossings of its edges, in boundary order
    and in coordinates relative to the cell's origin."""
    corners = cell_corners(mesh, cell)
    verts = []
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        if phi(ls, a) <= 0.0:
            verts.append(a)
        verts.extend(sorted(segment_crossings(ls, a, b), key=lambda p: np.linalg.norm(p - a)))
    if len(verts) < 3:
        return 0.0
    v = np.array(verts) - mesh.cell_origin(cell)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def cut_fraction(mesh, ls, cell):
    """(kappa_f, kappa_s) of one cell: chord polygon plus circular segments."""
    crossings = cell_crossings(mesh, ls, cell)
    if len(crossings) < 2:
        return (0.0, 1.0) if ls(mesh.cell_origin(cell) + 0.5 * mesh.h) < 0.0 else (1.0, 0.0)
    area_s = solid_polygon_area(mesh, ls, cell)
    for t0, t1 in arc_intervals(mesh, ls, cell, crossings):
        area_s += 0.5 * ls.radius_squared * ((t1 - t0) - np.sin(t1 - t0))
    kappa_s = min(max(area_s / mesh.h ** 2, 0.0), 1.0)
    return 1.0 - kappa_s, kappa_s


def polar_panels(mesh, topo, cell):
    """Angular breakpoints of a cut cell as seen from the circle center."""
    lo, hi = topo.arc_range(cell)
    arcs = topo.arcs[lo:hi]
    c = topo.level_set.center
    corners = mesh.cell_corners(cell) - c
    ang = np.arctan2(corners[:, 1], corners[:, 0])
    mid = 0.5 * (arcs[0, 0] + arcs[0, 1])
    ang = mid + np.mod(ang - mid + np.pi, 2.0 * np.pi) - np.pi
    return np.unique(np.concatenate([ang, arcs.ravel()]))


def cut_cell_rule_loop(mesh, topo, cell, side, npts=8):
    """The polar cut-cell rule of one cell built one ray at a time."""
    ls = topo.level_set
    o = mesh.cell_origin(cell)
    brk = polar_panels(mesh, topo, cell)
    gx, gw = gauss_1d(npts)
    pts, wts = [], []
    for t0, t1 in zip(brk[:-1], brk[1:]):
        dth = t1 - t0
        if dth < 1e-14:
            continue
        for xt, wt in zip(gx, gw):
            th = t0 + dth * xt
            ct, st = np.cos(th), np.sin(th)
            lo, hi, hit = 0.0, np.inf, True
            for axis, d in ((0, ct), (1, st)):
                a, b, c = o[axis], o[axis] + mesh.h, ls.center[axis]
                if abs(d) < 1e-15:
                    hit = hit and a <= c <= b
                else:
                    t1_, t2_ = sorted(((a - c) / d, (b - c) / d))
                    lo, hi = max(lo, t1_), min(hi, t2_)
            if not hit or lo >= hi:
                continue
            rin, rout = (lo, min(hi, ls.radius)) if side == "s" else (max(lo, ls.radius), hi)
            if rout - rin < 1e-15:
                continue
            rho = rin + (rout - rin) * gx
            wts.append(dth * wt * (rout - rin) * gw * rho)
            pts.append(np.column_stack([ls.center[0] + rho * ct, ls.center[1] + rho * st]))
    if not pts or topo.kappa(side)[cell] < 1e-14:
        return np.zeros((0, 2)), np.zeros(0)
    return np.vstack(pts), np.concatenate(wts)


def assert_rule_matches_loop(parts, mesh, topo, cell, side):
    """The rule of ``cell`` in a ``CutParts`` is its per-ray rule; a cell
    whose per-ray rule is empty has none."""
    pts, w = cut_cell_rule_loop(mesh, topo, int(cell), side)
    if not len(w):
        with pytest.raises(KeyError):
            parts[cell]
        return
    got = parts[cell]
    assert got.points.shape == pts.shape
    assert np.allclose(got.points, pts, rtol=0, atol=1e-15)
    assert np.allclose(got.weights, w, rtol=1e-14, atol=0)


def rule_moments(mesh, parts, npts):
    """(cells, npts, npts) moments of P_b(eta) P_a(xi) of each cell of a
    ``CutParts``, by its points, one cell at a time."""
    out = np.empty((len(parts.cells), npts, npts))
    for i, cell in enumerate(parts.cells):
        rule = parts[cell]
        ref = (rule.points - mesh.cell_origin(cell)) * (2.0 / mesh.h) - 1.0
        Px, Py = (_legendre(ref[:, k], npts) for k in (0, 1))
        out[i] = (rule.weights * Py) @ Px.T
    return out

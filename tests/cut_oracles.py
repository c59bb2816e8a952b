"""Per-cell, per-edge and per-ray versions of the batched cut geometry.

The library builds the cut topology and the cut-cell rules with array code
over all cells at once.  These loops do the same work one cell, one edge or
one ray at a time, with the same rules, and serve the tests as oracles.
"""

import numpy as np
import pytest

from cutfsi.quadrature import gauss_1d


def segment_crossings(ls, a, b):
    """Crossings of one segment [a, b] with the circle, in increasing t.

    A double root (discriminant within round-off of zero) touches the
    segment's line without crossing it and is not returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    m = a - ls.center
    qa = float(d @ d)
    qb = 2.0 * float(m @ d)
    qc = float(m @ m) - ls.radius_squared
    disc = qb * qb - 4.0 * qa * qc
    scale = abs(qb * qb) + abs(4.0 * qa * qc)
    if disc <= 1e-14 * max(scale, 1.0):
        return []
    q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
    return [a + t * d for t in sorted((q / qa, qc / q)) if -1e-13 <= t <= 1.0 + 1e-13]


def cell_crossings(mesh, ls, cell):
    """Distinct crossings on the boundary of one cell, in boundary order."""
    corners = mesh.cell_corners(cell)
    out = []
    for e in range(4):
        for p in segment_crossings(ls, corners[e], corners[(e + 1) % 4]):
            if not any(np.linalg.norm(p - q) < 1e-12 * (1.0 + mesh.h) for q in out):
                out.append(p)
    return out


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
    """Shoelace area of the chord polygon of the solid part of a cell."""
    corners = mesh.cell_corners(cell)
    verts = []
    for e in range(4):
        a, b = corners[e], corners[(e + 1) % 4]
        if ls(a) < 0.0:
            verts.append(a)
        verts.extend(segment_crossings(ls, a, b))
    if len(verts) < 3:
        return 0.0
    v = np.array(verts)
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

"""Property tests of the cut geometry over random circle positions.

The paper's central claim is that the method is robust however the
interface cuts the mesh.  These tests draw circles with centres |c| <= 0.1
and radii in [0.3, 0.85] on n = 8, 16, 32 and check the batched topology
and cut-cell rules against exact geometry and the per-cell oracles, with
explicit examples of a circle through mesh vertices, a tangent circle and a
sliver cut.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutfsi import ConfigError
from cutfsi.geometry import CircleLevelSet, edge_zero_crossings
from cutfsi.mesh import CellClass, build_cut_topology, build_mesh, verify_path_assumption
from cutfsi.quadrature import cut_cell_rule, reference_cell_rule
from cut_oracles import (arc_intervals, cell_crossings, cell_rule, cut_cell_rule_loop,
                         cut_fraction, segment_crossings)

MESHES = {n: build_mesh(n) for n in (8, 16, 32)}

# a sliver: the circle passes 1.8e-5 outside the vertex (0.5, 0.5) at n = 16,
# so the cell beyond it holds a solid corner with kappa_s of about 1e-8
SLIVER_R2 = 0.5 + 1.77e-5

# Error bound of the polar cut-cell rules relative to h^2.  Rays parallel
# to a cell's edges are poles of its radial bounds, and they near the panels
# as the centre nears the cell: over 3 000 random circles on n = 8, 16 the
# error reached 5.3e-9 h^2 at distance h/2 (the closest a cut cell may be),
# 7.6e-10 h^2 at 0.6 h and 6e-12 h^2 beyond h.
TOL = 1e-8

circles = dict(
    rho=st.floats(0.0, 0.1),
    alpha=st.floats(0.0, 2.0 * np.pi),
    r2=st.floats(0.3 ** 2, 0.85 ** 2),
    n=st.sampled_from(sorted(MESHES)),
)


def circle_examples(test):
    """The circle through mesh vertices, the same circle 1e-15 off them, the
    edge tangency and the sliver."""
    test = example(rho=0.0, alpha=0.0, r2=0.5, n=16)(test)
    test = example(rho=1e-15, alpha=0.0, r2=0.5, n=8)(test)
    test = example(rho=0.01, alpha=0.0, r2=0.25, n=8)(test)
    return example(rho=0.0, alpha=0.0, r2=SLIVER_R2, n=16)(test)


def topology(rho, alpha, r2, n):
    """(mesh, level set, topology), or None where the mesh is refused.

    Only a circle with (sqrt(2) + 1/2) h > r may be refused as unresolved.
    """
    mesh = MESHES[n]
    ls = CircleLevelSet(r2, center=rho * np.array([np.cos(alpha), np.sin(alpha)]))
    try:
        return mesh, ls, build_cut_topology(mesh, ls)
    except ConfigError:
        assert (np.sqrt(2.0) + 0.5) * mesh.h > ls.radius
        return None


@settings(max_examples=60, deadline=None)
@given(**circles)
@circle_examples
def test_topology_properties(rho, alpha, r2, n):
    built = topology(rho, alpha, r2, n)
    if built is None:
        return
    mesh, ls, topo = built
    h2 = mesh.h ** 2
    assert abs(np.sum(topo.kappa_s) * h2 - np.pi * r2) <= 1e-12
    assert abs(np.sum(topo.arcs[:, 1] - topo.arcs[:, 0]) * ls.radius
               - 2.0 * np.pi * ls.radius) <= 1e-12
    for kappa in (topo.kappa_f, topo.kappa_s):
        assert np.all((kappa >= 0.0) & (kappa <= 1.0))
    assert np.allclose(topo.kappa_f + topo.kappa_s, 1.0, rtol=0, atol=1e-15)
    for side in ("f", "s"):
        verify_path_assumption(topo, side)

    # the per-cell oracles: crossings, class, fractions and arcs
    cut = set(topo.cut_cells.tolist())
    for cell in range(mesh.n_cells):
        crossings = cell_crossings(mesh, ls, cell)
        assert (len(crossings) >= 2) == (cell in cut)
        kf, ks = cut_fraction(mesh, ls, cell)
        assert abs(topo.kappa_f[cell] - kf) <= 1e-15
        assert abs(topo.kappa_s[cell] - ks) <= 1e-15
        if cell in cut:
            assert np.allclose(topo.cell_arcs(cell), arc_intervals(mesh, ls, cell, crossings),
                               rtol=0, atol=1e-15)
        else:
            # an uncut cell lies on one side, up to a corner touching the circle
            sign = 1.0 if topo.cell_class[cell] == CellClass.FLUID_ONLY else -1.0
            assert np.all(sign * ls(mesh.cell_corners(cell)) >= -1e-12)

    # ghost faces: interior faces of T_i^h with at least one cut neighbour
    for side in ("f", "s"):
        tri = set(topo.tri_cells(side).tolist())
        want = [f for f, (k1, k2) in enumerate(mesh.face_cells.tolist())
                if k1 in tri and k2 in tri and (k1 in cut or k2 in cut)]
        assert topo.ghost_faces(side).tolist() == want


@settings(max_examples=30, deadline=None)
@given(**circles)
@circle_examples
def test_cut_rule_properties(rho, alpha, r2, n):
    """The fluid and solid rules of a cut cell partition it, carry its cut
    fractions, and match the per-ray oracle on the thinnest parts and on
    cells with two arcs."""
    built = topology(rho, alpha, r2, n)
    if built is None:
        return
    mesh, ls, topo = built
    h2 = mesh.h ** 2
    cells = topo.cut_cells
    ref_pts, ref_w = reference_cell_rule(6)

    def poly(p):
        return 1.0 + p[:, 0] * p[:, 1] + p[:, 0] ** 2 - 0.5 * p[:, 1] ** 3

    parts = {side: cut_cell_rule(mesh, topo, cells, side) for side in ("f", "s")}
    for side, sign in (("f", 1.0), ("s", -1.0)):
        assert np.all(parts[side].weights > 0.0)
        assert np.all(sign * ls(parts[side].points) >= -1e-12)
    for cell in cells:
        (pf, wf), (ps, ws) = (cell_rule(parts[side], cell) for side in ("f", "s"))
        assert abs(wf.sum() - topo.kappa_f[cell] * h2) <= TOL * h2
        assert abs(ws.sum() - topo.kappa_s[cell] * h2) <= TOL * h2
        whole = h2 * np.dot(ref_w, poly(mesh.cell_origin(cell) + mesh.h * ref_pts))
        assert abs(np.dot(wf, poly(pf)) + np.dot(ws, poly(ps)) - whole) <= TOL * h2

    two_arcs = np.unique(topo.arc_cells[1:][np.diff(topo.arc_cells) == 0])
    thin = [cells[np.argmin(topo.kappa(side)[cells])] for side in ("f", "s")]
    for cell in set(thin) | set(two_arcs.tolist()):
        for side in ("f", "s"):
            got_pts, got_w = cell_rule(parts[side], cell)
            pts, w = cut_cell_rule_loop(mesh, topo, int(cell), side)
            assert got_pts.shape == pts.shape
            assert np.allclose(got_pts, pts, rtol=0, atol=1e-15)
            assert np.allclose(got_w, w, rtol=1e-14, atol=0)


def test_sliver_example_is_thin():
    """The sliver example does cut a part of about 1e-8 of a cell."""
    _, _, topo = topology(0.0, 0.0, SLIVER_R2, 16)
    thinnest = min(topo.kappa(side)[topo.cut_cells].min() for side in ("f", "s"))
    assert 1e-9 <= thinnest <= 1e-7


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_batched_crossings_match_segment_loop(seed):
    """Random segments, many of them near tangent: the batched crossings are
    the per-segment ones."""
    rng = np.random.default_rng(seed)
    ls = CircleLevelSet(rng.uniform(0.1, 0.7), center=rng.uniform(-0.1, 0.1, 2))
    a = rng.uniform(-1.0, 1.0, (40, 2))
    b = rng.uniform(-1.0, 1.0, (40, 2))
    # horizontal segments at the height of the top of the circle
    top = ls.center[1] + ls.radius
    a[:10, 1] = b[:10, 1] = top + rng.choice([0.0, 1e-9, -1e-9], 10)
    pts, found = edge_zero_crossings(ls, a, b)
    for i in range(len(a)):
        want = segment_crossings(ls, a[i], b[i])
        assert len(want) == found[i].sum()
        assert np.allclose(pts[i][found[i]].reshape(-1, 2), np.reshape(want, (-1, 2)),
                           rtol=0, atol=1e-15)

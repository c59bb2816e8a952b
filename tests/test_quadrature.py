"""Quadrature rules: exactness, positivity, cut-cell and interface rules."""

import numpy as np
import pytest

from cutfsi.geometry import CircleLevelSet
from cutfsi.mesh import build_cut_topology, build_mesh
from cutfsi.quadrature import (cut_cell_rule, gauss_1d, interface_rule,
                               reference_cell_rule)
from cut_oracles import cell_rule, cut_cell_rule_loop

RS = 0.75


@pytest.fixture(scope="module")
def setup8():
    mesh = build_mesh(8)
    ls = CircleLevelSet(RS)
    topo = build_cut_topology(mesh, ls)
    return mesh, ls, topo


def side_rules(mesh, topo, cell):
    """(points, weights) of the fluid and the solid part of one cut cell."""
    return [cell_rule(cut_cell_rule(mesh, topo, topo.cut_cells, side), cell)
            for side in ("f", "s")]


@pytest.mark.parametrize("npts", [1, 2, 3, 5, 8, 12])
def test_gauss_exactness(npts):
    x, w = gauss_1d(npts)
    assert np.all(w > 0)
    for deg in range(2 * npts):
        exact = 1.0 / (deg + 1)
        assert np.dot(w, x ** deg) == pytest.approx(exact, rel=1e-13)


def test_gauss_cached_read_only():
    """Repeated calls return equal rules that callers cannot overwrite."""
    x1, w1 = gauss_1d(4)
    x2, w2 = gauss_1d(4)
    assert np.array_equal(x1, x2) and np.array_equal(w1, w2)
    for a in (x1, w1):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("n,r2", [(8, 0.5), (8, 0.71), (16, 0.5), (16, 0.71)])
def test_cut_rule_matches_ray_loop(n, r2):
    """The batched ray construction gives the per-ray rule, point by point."""
    mesh = build_mesh(n)
    topo = build_cut_topology(mesh, CircleLevelSet(r2))
    for side in ("f", "s"):
        parts = cut_cell_rule(mesh, topo, topo.cut_cells, side)
        for cell in topo.cut_cells:
            got_pts, got_w = cell_rule(parts, cell)
            pts, w = cut_cell_rule_loop(mesh, topo, int(cell), side)
            assert got_pts.shape == pts.shape
            assert np.allclose(got_pts, pts, rtol=0, atol=1e-15)
            assert np.allclose(got_w, w, rtol=1e-14, atol=0)


def test_cell_rule_total(disc8):
    """The rule shared by all uncut cells has positive weights summing to h^2."""
    w = disc8.full_cell_weights
    assert w.sum() == pytest.approx(disc8.h ** 2)
    assert np.all(w > 0)


def test_reference_cell_rule():
    pts, w = reference_cell_rule(3)
    assert w.sum() == pytest.approx(1.0)
    assert np.all((pts >= 0) & (pts <= 1))


def test_cut_rule_partitions_cell(setup8):
    """Fluid + solid parts of a cut cell recover full-cell integrals of
    polynomials (the union is the whole cell; quadrature is near-exact)."""
    mesh, ls, topo = setup8
    ref_pts, ref_w = reference_cell_rule(6)

    def poly(p):
        return 1.0 + p[:, 0] * p[:, 1] + p[:, 0] ** 2 - 0.5 * p[:, 1] ** 3

    for cell in topo.cut_cells[:8]:
        cell = int(cell)
        (pf, wf), (ps, ws) = side_rules(mesh, topo, cell)
        assert np.all(wf >= 0)
        assert np.all(ws >= 0)
        o = mesh.cell_origin(cell)
        whole = mesh.h ** 2 * np.dot(ref_w, poly(o + mesh.h * ref_pts))
        split = np.dot(wf, poly(pf)) + np.dot(ws, poly(ps))
        assert split == pytest.approx(whole, rel=1e-9)


def test_cut_points_on_correct_side(setup8):
    mesh, ls, topo = setup8
    for side, sign in (("f", 1.0), ("s", -1.0)):
        parts = cut_cell_rule(mesh, topo, topo.cut_cells, side)
        assert len(parts.weights) > 0
        assert np.all(sign * ls(parts.points) > -1e-10)


def test_cut_areas_match_kappa(setup8):
    mesh, _, topo = setup8
    h2 = mesh.h ** 2
    for cell in topo.cut_cells:
        cell = int(cell)
        (_, wf), (_, ws) = side_rules(mesh, topo, cell)
        assert wf.sum() == pytest.approx(topo.kappa_f[cell] * h2, abs=1e-12)
        assert ws.sum() == pytest.approx(topo.kappa_s[cell] * h2, abs=1e-12)


def test_interface_rule_geometry(setup8):
    mesh, _, topo = setup8
    length = 0.0
    moment = np.zeros(2)
    for cell in topo.cut_cells:
        rule = interface_rule(mesh, topo, int(cell))
        length += rule.total
        moment += rule.weights @ rule.points
        # points on the circle, normals unit and radially inward (toward solid)
        r2 = np.sum(rule.points ** 2, axis=1)
        assert np.allclose(r2, RS, atol=1e-13)
        nrm = np.linalg.norm(rule.normals, axis=1)
        assert np.allclose(nrm, 1.0, atol=1e-13)
        dots = np.sum(rule.normals * rule.points, axis=1)
        assert np.all(dots < 0)  # n_f = -x/|x|
    assert length == pytest.approx(2 * np.pi * np.sqrt(RS), abs=1e-12)
    assert np.allclose(moment, 0.0, atol=1e-12)


def test_interface_rule_integrates_harmonics(setup8):
    # int_Gamma x^2 ds = pi r^3 for the circle of radius r.
    mesh, _, topo = setup8
    r = np.sqrt(RS)
    val = 0.0
    for cell in topo.cut_cells:
        rule = interface_rule(mesh, topo, int(cell))
        val += np.dot(rule.weights, rule.points[:, 0] ** 2)
    assert val == pytest.approx(np.pi * r ** 3, rel=1e-12)


def test_cut_parts_batches_cover_rules(disc16):
    """The cut parts hold every non-empty cut-cell rule once, in cell order,
    and their batches pad each rule with zero weights at its last point,
    within the point budget."""
    mesh, topo = disc16.mesh, disc16.topo
    for side in ("f", "s"):
        rules = {int(c): cut_cell_rule_loop(mesh, topo, int(c), side) for c in topo.cut_cells}
        rules = {c: rule for c, rule in rules.items() if len(rule[1])}
        parts = disc16.cut_parts[side]
        assert list(parts.cells) == list(rules) and len(rules) > 0
        assert np.array_equal(parts.offsets[1:], np.cumsum([len(w) for _, w in rules.values()]))
        assert np.allclose(parts.points, np.vstack([p for p, _ in rules.values()]),
                           rtol=0, atol=1e-15)
        assert np.allclose(parts.weights, np.concatenate([w for _, w in rules.values()]),
                           rtol=1e-14, atol=0)
        seen = []
        for cells, pts, w in parts.batches(max_points=700):
            assert pts.shape == w.shape + (2,)
            assert w.size <= 700 or len(cells) == 1
            for cell, p, wc in zip(cells, pts, w):
                rule_pts, rule_w = cell_rule(parts, cell)
                k = len(rule_w)
                assert np.array_equal(p[:k], rule_pts)
                assert np.array_equal(wc[:k], rule_w)
                assert np.all(wc[k:] == 0.0) and np.all(p[k:] == rule_pts[-1])
                seen.append(int(cell))
        assert sorted(seen) == sorted(rules)

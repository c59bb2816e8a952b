"""Quadrature rules: exactness, positivity, cut-cell and interface rules."""

import numpy as np
import pytest

from cutfsi.geometry import CircleLevelSet
from cutfsi.mesh import build_cut_topology, build_mesh
from cutfsi.quadrature import (cut_cell_rule, gauss_1d, interface_rule,
                               reference_cell_rule)

RS = 0.75


@pytest.fixture(scope="module")
def setup8():
    mesh = build_mesh(8)
    ls = CircleLevelSet(RS)
    topo = build_cut_topology(mesh, ls)
    return mesh, ls, topo


@pytest.mark.parametrize("npts", [1, 2, 3, 5, 8, 12])
def test_gauss_exactness(npts):
    x, w = gauss_1d(npts)
    assert np.all(w > 0)
    for deg in range(2 * npts):
        exact = 1.0 / (deg + 1)
        assert np.dot(w, x ** deg) == pytest.approx(exact, rel=1e-13)


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
        rf = cut_cell_rule(mesh, topo, cell, "f")
        rs = cut_cell_rule(mesh, topo, cell, "s")
        assert np.all(rf.weights >= 0)
        assert np.all(rs.weights >= 0)
        o = mesh.cell_origin(cell)
        whole = mesh.h ** 2 * np.dot(ref_w, poly(o + mesh.h * ref_pts))
        split = np.dot(rf.weights, poly(rf.points)) + np.dot(rs.weights, poly(rs.points))
        assert split == pytest.approx(whole, rel=1e-9)


def test_cut_points_on_correct_side(setup8):
    mesh, ls, topo = setup8
    for cell in topo.cut_cells:
        cell = int(cell)
        rf = cut_cell_rule(mesh, topo, cell, "f")
        rs = cut_cell_rule(mesh, topo, cell, "s")
        if len(rf.weights):
            assert np.all(ls(rf.points) > -1e-10)
        if len(rs.weights):
            assert np.all(ls(rs.points) < 1e-10)


def test_cut_areas_match_kappa(setup8):
    mesh, _, topo = setup8
    h2 = mesh.h ** 2
    for cell in topo.cut_cells:
        cell = int(cell)
        rf = cut_cell_rule(mesh, topo, cell, "f")
        rs = cut_cell_rule(mesh, topo, cell, "s")
        assert rf.total == pytest.approx(topo.kappa_f[cell] * h2, abs=1e-12)
        assert rs.total == pytest.approx(topo.kappa_s[cell] * h2, abs=1e-12)


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

"""Mesh construction, cut classification and exact cut fractions."""

import numpy as np
import pytest

from cutfsi import Discretization, SimulationConfig
from cutfsi.analysis import domain_points
from cutfsi.geometry import CircleLevelSet
from cutfsi.mesh import (CellClass, build_cut_topology, build_mesh,
                         cut_fraction, verify_path_assumption)

RS = 0.75


def test_mesh_counts():
    mesh = build_mesh(8)
    assert mesh.n_cells == 64
    assert mesh.vertices.shape == (81, 2)
    assert mesh.h == pytest.approx(0.25)
    # n(n+1) vertical + n(n+1) horizontal faces
    assert mesh.n_faces == 2 * 8 * 9


def test_cell_corners_ccw():
    mesh = build_mesh(4)
    c = mesh.cell_corners(5)
    area = 0.0
    for i in range(4):
        x0, y0 = c[i]
        x1, y1 = c[(i + 1) % 4]
        area += 0.5 * (x0 * y1 - x1 * y0)
    assert area == pytest.approx(mesh.h ** 2)


def test_face_cells_consistent():
    mesh = build_mesh(4)
    for f in range(mesh.n_faces):
        k1, k2 = mesh.face_cells[f]
        for k in (k1, k2):
            if k >= 0:
                o = mesh.cell_origin(int(k))
                fo = mesh.face_origin[f]
                assert np.all(fo >= o - 1e-12)
                assert np.all(fo <= o + mesh.h + 1e-12)


def classify_by_sampling(mesh, ls, cell, m=40):
    """Oracle: dense sampling inside the cell."""
    o = mesh.cell_origin(cell)
    g = (np.arange(m) + 0.5) / m * mesh.h
    X, Y = np.meshgrid(o[0] + g, o[1] + g)
    phi = ls(np.column_stack([X.ravel(), Y.ravel()]))
    if phi.max() < 0:
        return CellClass.SOLID_ONLY
    if phi.min() > 0:
        return CellClass.FLUID_ONLY
    return CellClass.CUT


@pytest.mark.parametrize("n", [8, 16, 32])
def test_classification_matches_sampling(n):
    mesh = build_mesh(n)
    ls = CircleLevelSet(RS)
    topo = build_cut_topology(mesh, ls)
    for cell in range(mesh.n_cells):
        assert topo.cell_class[cell] == classify_by_sampling(mesh, ls, cell)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("r2", [0.5, 0.625])
def test_circle_through_vertices(n, r2):
    """A circle through mesh vertices: a cell with one corner on the circle
    and the others inside is solid, so areas and arc length stay exact."""
    disc = Discretization(SimulationConfig(n=n, radius_squared=r2))
    for side, area in (("s", np.pi * r2), ("f", 4.0 - np.pi * r2)):
        _, w, _ = domain_points(disc, side)
        assert abs(w.sum() - area) <= 1e-12
    arc = sum(rule.total for rule in disc.iface_rules.values())
    assert abs(arc - 2 * np.pi * np.sqrt(r2)) <= 1e-10
    for cell in range(disc.mesh.n_cells):
        assert disc.topo.cell_class[cell] == classify_by_sampling(
            disc.mesh, disc.level_set, cell)


def test_cut_fraction_monte_carlo():
    mesh = build_mesh(8)
    ls = CircleLevelSet(RS)
    topo = build_cut_topology(mesh, ls)
    rng = np.random.default_rng(3)
    for cell in topo.cut_cells[:6]:
        cell = int(cell)
        kf, ks = cut_fraction(mesh, ls, cell)
        o = mesh.cell_origin(cell)
        pts = o + mesh.h * rng.random((200000, 2))
        mc = float(np.mean(ls(pts) < 0))
        assert kf + ks == pytest.approx(1.0, abs=1e-12)
        assert ks == pytest.approx(mc, abs=5e-3)


def test_cut_fractions_sum_to_disk_area():
    # Sum of solid fractions over all cells equals the disk area exactly.
    for n in (8, 16, 32):
        mesh = build_mesh(n)
        ls = CircleLevelSet(RS)
        topo = build_cut_topology(mesh, ls)
        area = float(np.sum(topo.kappa_s) * mesh.h ** 2)
        assert area == pytest.approx(np.pi * RS, abs=1e-10)


def test_kappa_bounds(disc8):
    topo = disc8.topo
    cut = topo.cut_cells
    assert np.all(topo.kappa_f[cut] > 0)
    assert np.all(topo.kappa_s[cut] > 0)
    assert np.all(topo.kappa_f[cut] < 1)
    full_f = topo.cell_class == CellClass.FLUID_ONLY
    assert np.all(topo.kappa_f[full_f] == 1.0)


def test_ghost_faces_brute_force(disc8):
    """F_G^i: interior faces of T_i^h with at least one cut neighbor."""
    mesh, topo = disc8.mesh, disc8.topo
    for side in ("f", "s"):
        tri = set(int(c) for c in topo.tri_cells(side))
        cut = set(int(c) for c in topo.cut_cells)
        expected = set()
        for f in range(mesh.n_faces):
            k1, k2 = (int(c) for c in mesh.face_cells[f])
            if k1 < 0 or k2 < 0:
                continue
            if k1 in tri and k2 in tri and (k1 in cut or k2 in cut):
                expected.add(f)
        assert set(int(f) for f in topo.ghost_faces(side)) == expected


def test_subtriangulation_definitions(disc8):
    topo = disc8.topo
    nf = len(topo.tri_cells("f"))
    ns = len(topo.tri_cells("s"))
    ncut = len(topo.cut_cells)
    assert nf + ns - ncut == disc8.mesh.n_cells
    assert set(topo.cut_cells) <= set(topo.tri_cells("f"))
    assert set(topo.cut_cells) <= set(topo.tri_cells("s"))


def test_interface_segments_cover_circle(disc8):
    total = sum(seg.arc_angle for seg in disc8.topo.segments.values())
    assert total == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_path_assumption(n):
    mesh = build_mesh(n)
    topo = build_cut_topology(mesh, CircleLevelSet(RS))
    for side in ("f", "s"):
        path_len, reuse = verify_path_assumption(topo, side)
        assert path_len < np.inf
        assert path_len <= 4
        assert reuse <= 8


def test_odd_n_warns():
    with pytest.warns(UserWarning):
        build_mesh(7)

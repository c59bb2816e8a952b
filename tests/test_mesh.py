"""Mesh construction, cut classification and exact cut fractions."""

import numpy as np
import pytest

from cutfsi import ConfigError, Discretization, SimulationConfig
from cutfsi.analysis import domain_points
from cutfsi.geometry import CircleLevelSet
from cutfsi.mesh import (CellClass, build_cut_topology, build_mesh,
                         verify_path_assumption)
from cut_oracles import cut_fraction

RS = 0.75


def test_mesh_counts():
    mesh = build_mesh(8)
    assert mesh.n_cells == 64
    assert mesh.vertices.shape == (81, 2)
    assert mesh.h == pytest.approx(0.25)
    # n(n+1) vertical + n(n+1) horizontal faces
    assert len(mesh.face_cells) == 2 * 8 * 9


def test_cell_corners_ccw():
    mesh = build_mesh(4)
    c = mesh.cell_corners(5)
    area = 0.0
    for i in range(4):
        x0, y0 = c[i]
        x1, y1 = c[(i + 1) % 4]
        area += 0.5 * (x0 * y1 - x1 * y0)
    assert area == pytest.approx(mesh.h ** 2)


@pytest.mark.filterwarnings("ignore:odd n")
def test_cell_corners_are_the_vertices():
    """At n = 9 (h = 2/9 is not dyadic) every cell's corners, and its
    origin, equal its grid vertices bit for bit, so the cells on either
    side of a mesh line place it alike."""
    n = 9
    mesh = build_mesh(n)
    cells = np.arange(mesh.n_cells)
    ix, iy = cells % n, cells // n
    want = np.stack([mesh.vertices[(iy + dy) * (n + 1) + ix + dx]
                     for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))], axis=1)
    got = mesh.cell_corners(cells)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert mesh.cell_origin(cells).tobytes() == want[:, 0].tobytes()


def test_face_cells_consistent():
    """The two cells of an interior face are neighbours across its normal
    axis; a boundary face has one cell."""
    mesh = build_mesh(4)
    for (k1, k2), axis in zip(mesh.face_cells, mesh.face_axis):
        if min(k1, k2) < 0:
            assert max(k1, k2) >= 0
        else:
            step = mesh.cell_origin(k2) - mesh.cell_origin(k1)
            assert np.allclose(step, mesh.h * np.eye(2)[axis], atol=1e-12)


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
    arc = disc.iface_rules.total
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
        for f in range(len(mesh.face_cells)):
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
    arcs = disc8.topo.arcs
    assert np.all(arcs[:, 1] > arcs[:, 0])
    assert np.sum(arcs[:, 1] - arcs[:, 0]) == pytest.approx(2 * np.pi, abs=1e-12)


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


def test_face_arrays_match_face_loop():
    """The face arrays equal the lexicographic double loop over faces."""
    n = 5
    with pytest.warns(UserWarning):
        mesh = build_mesh(n)
    cells, axes = [], []
    for iy in range(n):
        for ix in range(n + 1):
            cells.append((iy * n + ix - 1 if ix > 0 else -1, iy * n + ix if ix < n else -1))
            axes.append(0)
    for iy in range(n + 1):
        for ix in range(n):
            cells.append(((iy - 1) * n + ix if iy > 0 else -1, iy * n + ix if iy < n else -1))
            axes.append(1)
    assert np.array_equal(mesh.face_cells, cells)
    assert np.array_equal(mesh.face_axis, axes)


def test_two_arc_cells():
    """At n = 9, r2 = 0.3136 the circle leaves four cells through one face
    and comes back through it: those cells hold two arcs, and the areas and
    the arc length stay exact."""
    with pytest.warns(UserWarning):
        disc = Discretization(SimulationConfig(n=9, radius_squared=0.3136))
    topo = disc.topo
    assert len(topo.arcs) == len(topo.cut_cells) + 4
    for side, area in (("s", np.pi * 0.3136), ("f", 4.0 - np.pi * 0.3136)):
        _, w, _ = domain_points(disc, side)
        assert abs(w.sum() - area) <= 1e-13
    arc = disc.iface_rules.total
    assert abs(arc - 2 * np.pi * np.sqrt(0.3136)) <= 1e-13
    for cell in topo.cut_cells:
        assert classify_by_sampling(disc.mesh, disc.level_set, int(cell)) == CellClass.CUT


@pytest.mark.parametrize("n,r2,match", [
    (9, 0.01, r"cell 40: the interface arcs cover 0 of 2 pi.*n >= 39"),
    (3, 0.16, r"cell 4: 8 interface crossings.*n >= 10"),
])
def test_unresolved_circle_raises(n, r2, match):
    """A circle inside one cell, or one crossing a cell eight times, is not
    resolved: the error names the cell and an n that resolves it."""
    with pytest.warns(UserWarning), pytest.raises(ConfigError, match=match):
        Discretization(SimulationConfig(n=n, radius_squared=r2))
    n_min = int(match.rsplit(">= ", 1)[1])
    disc = Discretization(SimulationConfig(n=n_min, radius_squared=r2))
    assert abs(np.sum(disc.topo.kappa_s) * disc.h ** 2 - np.pi * r2) <= 1e-14


@pytest.mark.parametrize("centre,r2,cell", [
    ((0.75, 0.6), 0.04, 11),    # bulges out of the cell that holds its centre
    ((0.0, 0.0), 0.16, 5),      # through all corners next to the centre
])
def test_cut_cell_near_centre_raises(centre, r2, cell):
    """A cut cell within h/2 of the centre: its polar rule would lose accuracy."""
    ls = CircleLevelSet(r2, center=np.array(centre))
    with pytest.raises(ConfigError, match=f"cell {cell}: the cut cell lies within h/2 "
                                          "of the circle centre"):
        build_cut_topology(build_mesh(4), ls)


def test_circle_leaving_domain_raises():
    ls = CircleLevelSet(0.25, center=np.array([0.6, 0.0]))
    with pytest.raises(ConfigError, match="does not lie inside the domain"):
        build_cut_topology(build_mesh(8), ls)

"""Quadrature rules: exactness, positivity, cut-cell and interface rules."""

import numpy as np
import pytest

from cutfsi import Discretization, SimulationConfig
from cutfsi.geometry import CircleLevelSet
from cutfsi.mesh import CellClass, build_cut_topology, build_mesh
from cutfsi.quadrature import (_legendre, cut_cell_rule, gauss_1d, interface_rule,
                               moment_fitted_rule, reference_cell_rule, solid_moments)
from cut_oracles import assert_rule_matches_loop, cut_cell_rule_loop, rule_moments

RS = 0.75


@pytest.fixture(scope="module")
def setup8():
    mesh = build_mesh(8)
    ls = CircleLevelSet(RS)
    topo = build_cut_topology(mesh, ls)
    return mesh, ls, topo


def side_rules(mesh, topo, cell):
    """(points, weights) of the fluid and the solid part of one cut cell."""
    rules = [cut_cell_rule(mesh, topo, topo.cut_cells, side)[cell] for side in ("f", "s")]
    return [(rule.points, rule.weights) for rule in rules]


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
            assert_rule_matches_loop(parts, mesh, topo, cell, side)


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


MOMENT_CASES = [(n, r2, m_s) for n, r2 in ((8, 0.75), (9, 0.3136), (16, 0.5))
                for m_s in (1, 2)]
MOMENT_CASES += [(16, 0.6, 1), (16, 0.75, 2), (32, 0.5, 1), (32, 0.79, 2), (64, 0.75, 2)]


@pytest.mark.parametrize("n,r2,m_s", MOMENT_CASES,
                         ids=[f"n{n}-r{r2}-ms{m}" for n, r2, m in MOMENT_CASES])
def test_moment_fitted_rule_matches_polar_rule(n, r2, m_s):
    """On every cut cell and side, the weights fitted to the Gauss-Green
    moments are within 5e-14 h^2 of those fitted to the moments of a
    24-point polar rule, whose moments are accurate to about 1e-14 h^2; the
    8-point polar rule of ``cut_parts`` is off by up to 5e-7 h^2 near the
    centre.  The rule has (2r + 1)^2 nodes, r the side's highest order, on
    the cells whose part is not empty, and its weights sum to kappa h^2.
    At n = 9, r2 = 0.3136 four cells hold two arcs; at n = 16, r2 = 0.5
    the circle passes through mesh vertices."""
    disc = Discretization(SimulationConfig(n=n, m_s=m_s, radius_squared=r2))
    h2 = disc.h ** 2
    for side, r in (("f", disc.cfg.m_f), ("s", m_s)):
        polar = cut_cell_rule(disc.mesh, disc.topo, disc.topo.cut_cells, side, npts=24)
        cells, nodes, weights = disc.cut_nodes[side]
        assert np.array_equal(cells, polar.cells)
        assert np.array_equal(cells, disc.cut_parts[side].cells)
        assert nodes.shape == ((2 * r + 1) ** 2, 2)
        assert weights.shape == (len(cells), len(nodes))
        moments = rule_moments(disc.mesh, polar, 2 * r + 1)
        _, want = moment_fitted_rule(moments)
        assert np.abs(weights - want).max() <= 5e-14 * h2
        # the fitted rule integrates P_b(eta) P_a(xi), a, b <= 2r, as the
        # polar rule does, so every product of two Q_r values or gradients
        Px, Py = (_legendre(2.0 * nodes[:, k] - 1.0, 2 * r + 1) for k in (0, 1))
        assert np.abs((weights[:, None, :] * Py) @ Px.T - moments).max() <= 5e-14 * h2
        area = disc.topo.kappa(side)[cells] * h2
        assert np.abs(weights.sum(axis=1) - area).max() <= 1e-15


@pytest.mark.parametrize("npts", [1, 3, 5])
def test_solid_moments_mirror_symmetric(setup8, npts):
    """x -> -x maps the circle onto itself, cell (i, j) onto (n - 1 - i, j)
    and P_a(xi) onto (-1)^a P_a(xi).  A cell and its mirror image take
    their moments from mirrored arcs and from right edges at different
    places, so the symmetry checks the edge term against the arc terms."""
    mesh, _, topo = setup8
    got = solid_moments(mesh, topo, interface_rule(mesh, topo, topo.cut_cells), npts)
    i, j = topo.cut_cells % mesh.n, topo.cut_cells // mesh.n
    mirror = np.searchsorted(topo.cut_cells, j * mesh.n + mesh.n - 1 - i)
    assert np.array_equal(topo.cut_cells[mirror], j * mesh.n + mesh.n - 1 - i)
    sign = (-1.0) ** np.arange(npts)
    assert np.abs(got[mirror] * sign - got).max() <= 1e-14 * mesh.h ** 2
    assert np.abs(got[:, 0, 0] - topo.kappa_s[topo.cut_cells] * mesh.h ** 2).max() <= 1e-15


def test_kappa_matches_gauss_green_area():
    """kappa_s h^2, the chord polygon's shoelace area plus the circular
    segments, is the Gauss-Green area of the solid part to 2e-14 h^2 at
    n = 64.  The shoelace products are taken relative to each cell, so they
    are of size h^2; in global coordinates the gap is 1.5e-13 h^2."""
    mesh = build_mesh(64)
    topo = build_cut_topology(mesh, CircleLevelSet(RS))
    area = solid_moments(mesh, topo, interface_rule(mesh, topo, topo.cut_cells), 1)[:, 0, 0]
    h2 = mesh.h ** 2
    assert np.abs(topo.kappa_s[topo.cut_cells] * h2 - area).max() <= 2e-14 * h2


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
        assert wf.sum() == pytest.approx(topo.kappa("f")[cell] * h2, abs=1e-12)
        assert ws.sum() == pytest.approx(topo.kappa_s[cell] * h2, abs=1e-12)


def test_interface_rule_geometry(setup8):
    mesh, _, topo = setup8
    rule = interface_rule(mesh, topo, topo.cut_cells)
    assert np.allclose(np.sum(rule.points ** 2, axis=1), RS, atol=1e-13)  # on the circle
    assert rule.total == pytest.approx(2 * np.pi * np.sqrt(RS), abs=1e-12)
    assert np.allclose(rule.weights @ rule.points, 0.0, atol=1e-12)


def test_interface_rule_integrates_harmonics(setup8):
    # int_Gamma x^2 ds = pi r^3 for the circle of radius r.
    mesh, _, topo = setup8
    rule = interface_rule(mesh, topo, topo.cut_cells)
    assert np.dot(rule.weights, rule.points[:, 0] ** 2) == pytest.approx(
        np.pi * np.sqrt(RS) ** 3, rel=1e-12)


@pytest.mark.parametrize("n,r2", [(8, 0.75), (9, 0.3136)])
def test_interface_rules_per_cell(n, r2):
    """The arc record of a discretization holds, for every cut cell, the
    rule of that cell alone: 12 points per arc, arc-major, weighing the
    arcs' lengths.  At n = 9, r2 = 0.3136 four cells hold two arcs."""
    disc = Discretization(SimulationConfig(n=n, radius_squared=r2))
    mesh, topo, rules = disc.mesh, disc.topo, disc.iface_rules
    assert np.array_equal(rules.cells, topo.cut_cells)
    gx, gw = gauss_1d(12)
    for cell in topo.cut_cells:
        got, want = rules[cell], interface_rule(mesh, topo, cell)
        for field in ("cells", "points", "weights", "offsets"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        arcs = topo.arcs[topo.arc_cells == cell]
        dth = arcs[:, 1] - arcs[:, 0]
        th = (arcs[:, :1] + dth[:, None] * gx).ravel()
        assert np.allclose(got.points, np.sqrt(r2) * np.column_stack([np.cos(th), np.sin(th)]),
                           rtol=0, atol=1e-15)
        assert np.allclose(got.weights, (np.sqrt(r2) * dth[:, None] * gw).ravel(),
                           rtol=1e-14, atol=0)
        assert got.total == pytest.approx(np.sqrt(r2) * dth.sum(), rel=1e-14)
    assert np.sum(np.diff(rules.offsets) == 24) == (4 if n == 9 else 0)


def test_cut_parts_lookup_fails_loudly(disc8):
    """A cell without a rule raises KeyError, and the record is not
    iterable (a bare __getitem__ would make iteration run on forever)."""
    rules = disc8.iface_rules
    uncut = int(np.flatnonzero(disc8.topo.cell_class != CellClass.CUT)[0])
    with pytest.raises(KeyError):
        rules[uncut]
    with pytest.raises(TypeError):
        list(rules)
    with pytest.raises(ValueError, match=f"cell {uncut} is not cut"):
        interface_rule(disc8.mesh, disc8.topo, [int(rules.cells[0]), uncut])


def test_cut_parts_cover_rules(disc16):
    """The cut parts hold every non-empty cut-cell rule once, in cell order."""
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

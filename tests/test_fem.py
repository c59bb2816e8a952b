"""Reference bases, dof maps and jump tables."""

import numpy as np
import pytest

from assembly_oracle import component_ids as _component_ids
from cutfsi.assembly import FACE_NPTS, face_jump_table
from cutfsi.fem import build_dof_map, reference_basis


@pytest.mark.parametrize("order", [1, 2])
def test_partition_of_unity(order):
    basis = reference_basis(order)
    pts = np.random.default_rng(0).random((20, 2))
    N = basis.eval(pts)
    assert N.shape == (20, (order + 1) ** 2)
    assert np.allclose(N.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(basis.eval(pts, dx=1).sum(axis=1), 0.0, atol=1e-10)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_eval1d_matches_vander(order, deriv):
    """The 1d tables equal powers from np.vander times the differentiated
    coefficients exactly."""
    basis = reference_basis(order)
    x = np.random.default_rng(1).random(1000)
    c = basis._coeffs
    for _ in range(deriv):
        c = c[1:] * np.arange(1, c.shape[0])[:, None]
    want = (np.vander(x, c.shape[0], increasing=True) @ c if len(c)
            else np.zeros((len(x), order + 1)))
    assert np.array_equal(basis._eval1d(x, deriv), want)


@pytest.mark.parametrize("order", [1, 2])
def test_kronecker_at_nodes(order):
    basis = reference_basis(order)
    g = np.linspace(0, 1, order + 1)
    X, Y = np.meshgrid(g, g, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    N = basis.eval(nodes)
    assert np.allclose(N, np.eye(len(nodes)), atol=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_exact_polynomial_reproduction(order):
    basis = reference_basis(order)
    g = np.linspace(0, 1, order + 1)
    X, Y = np.meshgrid(g, g, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def f(p):
        return (1 + p[:, 0]) ** order * (2 - p[:, 1]) ** order

    coefs = f(nodes)
    pts = np.random.default_rng(1).random((30, 2))
    assert np.allclose(basis.eval(pts) @ coefs, f(pts), atol=1e-11)


def test_derivatives_of_quadratic():
    basis = reference_basis(2)
    g = np.linspace(0, 1, 3)
    X, Y = np.meshgrid(g, g, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    coefs = nodes[:, 0] ** 2 * nodes[:, 1]
    pts = np.random.default_rng(2).random((10, 2))
    assert np.allclose(basis.eval(pts, dx=1) @ coefs, 2 * pts[:, 0] * pts[:, 1])
    assert np.allclose(basis.eval(pts, dx=2) @ coefs, 2 * pts[:, 1])
    assert np.allclose(basis.eval(pts, dy=1) @ coefs, pts[:, 0] ** 2)
    assert np.allclose(basis.eval(pts, dx=1, dy=1) @ coefs, 2 * pts[:, 0])


def test_physical_eval_scaling(disc8):
    """The batched tabulation scales derivatives through the cell map: on
    the cell with origin (0.5, -0.25) and h = 0.25 the Q2 interpolant of
    3x^2 - y is reproduced with its first derivatives, one table per
    derivative for points of several cells at once."""
    cell = 3 * disc8.mesh.n + 6
    origin = disc8.mesh.cell_origin(cell)
    h = disc8.h
    assert np.allclose(origin, [0.5, -0.25]) and h == 0.25
    g = origin + h * np.stack(np.meshgrid(np.linspace(0, 1, 3),
                                          np.linspace(0, 1, 3),
                                          indexing="xy"), axis=-1).reshape(-1, 2)
    coefs = 3.0 * g[:, 0] ** 2 - g[:, 1]
    pts = origin + h * np.random.default_rng(3).random((2, 5, 2))
    N, Gx, Gy = disc8.tabulate(2, cell, pts)
    assert N.shape == (2, 5, 9)
    assert np.allclose(N @ coefs, 3 * pts[..., 0] ** 2 - pts[..., 1])
    assert np.allclose(Gx @ coefs, 6 * pts[..., 0])
    assert np.allclose(Gy @ coefs, -1.0)
    # a second cell in the same call: the same function, shifted by h in x
    cells = np.array([[cell], [cell + 1]])
    shifted = pts + np.array([[[0.0, 0.0]], [[h, 0.0]]])
    N2 = disc8.tabulate(2, cells, shifted)[0]
    assert np.allclose(N2, N, atol=1e-14)


def enumerate_scalar_dofs(mesh, cells, order):
    """Oracle: count distinct lattice nodes of the subtriangulation."""
    nodes = set()
    for cell in cells:
        ix, iy = int(cell) % mesh.n, int(cell) // mesh.n
        for dy in range(order + 1):
            for dx in range(order + 1):
                nodes.add((ix * order + dx, iy * order + dy))
    return len(nodes)


@pytest.mark.parametrize("side,order", [("f", 2), ("f", 1), ("s", 1), ("s", 2)])
def test_dof_counts_enumeration(disc8, side, order):
    mesh, topo = disc8.mesh, disc8.topo
    dm = build_dof_map(mesh, topo, "test", order, 1, side)
    assert dm.n_scalar == enumerate_scalar_dofs(mesh, topo.tri_cells(side), order)


def test_dof_coords_match_cells(disc8):
    """``cell_dofs`` is read by mesh cell: in each space, the row of each
    cell of the subtriangulation holds the nodes of that cell's lattice in
    the basis order (x fastest), and the row of every other cell is -1."""
    mesh = disc8.mesh
    for block in ("vf", "p", "vs"):
        dm = disc8.dofmap(block)
        assert dm.cell_dofs.shape == (mesh.n_cells, (dm.order + 1) ** 2)
        lattice = np.linspace(0.0, mesh.h, dm.order + 1)
        ref = np.column_stack([np.tile(lattice, dm.order + 1),
                               np.repeat(lattice, dm.order + 1)])
        for cell in dm.cells:
            coords = dm.node_coords[dm.cell_dofs[cell]]
            assert np.allclose(coords, mesh.cell_origin(int(cell)) + ref, rtol=0, atol=1e-12)
        outside = np.setdiff1d(np.arange(mesh.n_cells), dm.cells)
        assert len(outside) > 0 and np.all(dm.cell_dofs[outside] == -1)


def test_dirichlet_nodes_on_boundary(disc8):
    dm = disc8.vf
    coords = dm.node_coords[dm.dirichlet_nodes]
    on_bd = (np.abs(np.abs(coords[:, 0]) - 1) < 1e-12) | \
            (np.abs(np.abs(coords[:, 1]) - 1) < 1e-12)
    assert np.all(on_bd)
    # every boundary lattice node of the fluid subtriangulation is included
    all_bd = (np.abs(np.abs(dm.node_coords[:, 0]) - 1) < 1e-12) | \
             (np.abs(np.abs(dm.node_coords[:, 1]) - 1) < 1e-12)
    assert len(dm.dirichlet_nodes) == int(all_bd.sum())


def test_vector_ids_layout(disc8):
    """Vector fields are component-major: component c of scalar dof j sits
    at offset + c * n_scalar + j."""
    dm = disc8.vf
    sc = np.array([0, 5, 7])
    ids = _component_ids(sc, dm.n_scalar, 2, offset=3)
    assert np.array_equal(ids, np.concatenate([3 + sc, 3 + dm.n_scalar + sc]))


def test_jump_zero_for_global_polynomial(disc8):
    """Interpolants of global Q2 polynomials have exactly zero jumps of the
    first and second normal derivative across interior faces: the per-axis
    reference jump table annihilates their stacked cell coefficients on
    every ghost face of either axis."""
    mesh = disc8.mesh
    dm = disc8.vf
    poly = dm.node_coords[:, 0] ** 2 + dm.node_coords[:, 0] * dm.node_coords[:, 1]
    faces = disc8.topo.ghost_faces("f")
    assert set(mesh.face_axis[faces]) == {0, 1}
    for f in faces:
        k1, k2 = (int(c) for c in mesh.face_cells[f])
        c = np.concatenate([poly[dm.cell_dofs[k1]], poly[dm.cell_dofs[k2]]])
        for j in (1, 2):
            J = face_jump_table(2, j, mesh.face_axis[f]) / mesh.h ** j
            assert J.shape == (FACE_NPTS, 18)
            assert np.allclose(J @ c, 0.0, atol=1e-9)
    # a function with a kink across x = 0 has a nonzero first jump there
    kink = np.abs(dm.node_coords[:, 0])
    f = next(f for f in faces if mesh.face_axis[f] == 0
             and abs(mesh.cell_origin(mesh.face_cells[f][1])[0]) < 1e-12)
    k1, k2 = (int(c) for c in mesh.face_cells[f])
    c = np.concatenate([kink[dm.cell_dofs[k1]], kink[dm.cell_dofs[k2]]])
    assert np.allclose(face_jump_table(2, 1, 0) / mesh.h @ c, -2.0)

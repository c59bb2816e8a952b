"""Reference bases, dof maps and jump tables."""

import numpy as np
import pytest

from cutfsi.assembly import _component_ids
from cutfsi.fem import (build_dof_map, normal_derivative_jump, physical_eval,
                        reference_basis)
from cutfsi.quadrature import gauss_1d


@pytest.mark.parametrize("order", [1, 2])
def test_partition_of_unity(order):
    basis = reference_basis(order)
    pts = np.random.default_rng(0).random((20, 2))
    N = basis.eval(pts)
    assert N.shape == (20, (order + 1) ** 2)
    assert np.allclose(N.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(basis.eval(pts, dx=1).sum(axis=1), 0.0, atol=1e-10)


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


def test_physical_eval_scaling():
    basis = reference_basis(2)
    origin = np.array([0.5, -0.25])
    h = 0.25
    g = origin + h * np.stack(np.meshgrid(np.linspace(0, 1, 3),
                                          np.linspace(0, 1, 3),
                                          indexing="xy"), axis=-1).reshape(-1, 2)
    coefs = 3.0 * g[:, 0] ** 2 - g[:, 1]
    pts = origin + h * np.random.default_rng(3).random((10, 2))
    assert np.allclose(physical_eval(basis, origin, h, pts) @ coefs,
                       3 * pts[:, 0] ** 2 - pts[:, 1])
    assert np.allclose(physical_eval(basis, origin, h, pts, dx=1) @ coefs,
                       6 * pts[:, 0])
    assert np.allclose(physical_eval(basis, origin, h, pts, dx=2) @ coefs, 6.0)


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
    dm = disc8.vf
    mesh = disc8.mesh
    for row, cell in enumerate(dm.cells[:10]):
        o = mesh.cell_origin(int(cell))
        coords = dm.node_coords[dm.cell_dofs[row]]
        assert np.all(coords >= o - 1e-12)
        assert np.all(coords <= o + mesh.h + 1e-12)


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
    first and second normal derivative across interior faces."""
    mesh = disc8.mesh
    dm = disc8.vf
    basis = reference_basis(2)
    gx, _ = gauss_1d(3)
    poly = dm.node_coords[:, 0] ** 2 + dm.node_coords[:, 0] * dm.node_coords[:, 1]
    for f in list(disc8.topo.ghost_faces("f"))[:10]:
        k1, k2 = (int(c) for c in mesh.face_cells[f])
        axis = mesh.face_axis[f]
        pts = np.tile(mesh.face_origin[f], (3, 1))
        pts[:, 1 - axis] += mesh.h * gx
        for j in (1, 2):
            t1, t2 = normal_derivative_jump(mesh, basis, f, j, pts)
            c1 = poly[dm.cell_dofs[dm.cell_index[k1]]]
            c2 = poly[dm.cell_dofs[dm.cell_index[k2]]]
            assert np.allclose(t1 @ c1 - t2 @ c2, 0.0, atol=1e-9)

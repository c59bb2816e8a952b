"""Form assembly oracles: mass patterns, kernels, symmetry, PSD-ness."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutfsi import Discretization, SimulationConfig
from cutfsi.assembly import (SCALAR_KERNELS, _mass, assemble_cells,
                             assemble_forms, raw_jump_matrices, weight_w)


@pytest.fixture(scope="module")
def forms8(disc8):
    return assemble_forms(disc8)


def test_single_cell_q1_mass_pattern():
    """Local Q1 mass matrix on an uncut cell: (h^2/36)[[4,2,2,1],...]."""
    disc = Discretization(SimulationConfig(n=8))
    t = disc.full_cell_tables(1)
    local = _mass(t[0], t[0], disc.full_cell_weights)
    h2 = disc.h ** 2
    expected = (h2 / 36.0) * np.array([[4, 2, 2, 1],
                                       [2, 4, 1, 2],
                                       [2, 1, 4, 2],
                                       [1, 2, 2, 4]], dtype=float)
    assert np.allclose(local, expected, atol=1e-14)


def test_weight_function():
    assert weight_w(0.5, 1.0) == pytest.approx(0.5)
    assert weight_w(0.5, 4.0) == pytest.approx(0.5 * 4.0 ** 0.0)
    assert weight_w(0.0, 4.0) == pytest.approx(2.0)
    assert weight_w(1.0, 4.0) == pytest.approx(0.125)


def test_mass_totals(disc8, forms8):
    """1^T M 1 = rho |Omega| for each mass form."""
    lay = disc8.layout
    ones = np.zeros(lay.n_system)
    ones[lay.slice("vf")] = 1.0
    fluid_area = 4.0 - np.pi * 0.75
    assert ones @ (forms8.mass_fluid @ ones) == pytest.approx(2 * fluid_area, rel=1e-10)
    ones = np.zeros(lay.n_system)
    ones[lay.slice("vs")] = 1.0
    assert ones @ (forms8.mass_solid @ ones) == pytest.approx(2 * np.pi * 0.75, rel=1e-10)


def test_scalar_mass_additivity(disc8):
    """Mass over Omega_f plus mass over Omega_s equals mass over the square
    when both are assembled on the same (pressure-like) lattice."""
    Mf = assemble_cells(disc8, SCALAR_KERNELS["value"], "p")
    ones = np.ones(disc8.p.n_scalar)
    assert ones @ (Mf @ ones) == pytest.approx(4.0 - np.pi * 0.75, rel=1e-12)


def test_fluid_bulk_skew_pressure(disc8, forms8):
    """Pressure coupling: b(v, q) blocks are negative transposes, so pressure
    drops out of the energy identity."""
    lay = disc8.layout
    A = forms8.fluid_bulk.tocsr()
    vp = A[lay.slice("vf"), :][:, lay.slice("p")]
    pv = A[lay.slice("p"), :][:, lay.slice("vf")]
    assert abs(vp + pv.T).max() < 1e-12


def test_viscous_block_symmetry(disc8, forms8):
    lay = disc8.layout
    A = forms8.fluid_bulk.tocsr()
    vv = A[lay.slice("vf"), :][:, lay.slice("vf")]
    assert abs(vv - vv.T).max() < 1e-12
    # PSD with constants in the kernel
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(vv.shape[0])
        assert x @ (vv @ x) >= -1e-12
    const = np.ones(vv.shape[0])
    assert np.abs(vv @ const).max() < 1e-12


def test_viscous_energy_against_quadrature(disc8, forms8):
    """x^T A x equals int 2 rho nu |eps(v)|^2 computed independently at the
    quadrature points for a random interpolated field."""
    from cutfsi.analysis import domain_points, evaluate_scalar
    lay = disc8.layout
    cfg = disc8.cfg
    dm = disc8.vf
    rng = np.random.default_rng(4)
    coefs = rng.standard_normal(2 * dm.n_scalar)
    pts, w, cells = domain_points(disc8, "f")
    gxx = evaluate_scalar(disc8, "vf", coefs, pts, cells, 0, dx=1)
    gxy = evaluate_scalar(disc8, "vf", coefs, pts, cells, 0, dy=1)
    gyx = evaluate_scalar(disc8, "vf", coefs, pts, cells, 1, dx=1)
    gyy = evaluate_scalar(disc8, "vf", coefs, pts, cells, 1, dy=1)
    eps2 = gxx ** 2 + gyy ** 2 + 0.5 * (gxy + gyx) ** 2
    expected = 2 * cfg.rho_f * cfg.nu_f * np.dot(w, eps2)
    A = forms8.fluid_bulk.tocsr()
    vv = A[lay.slice("vf"), :][:, lay.slice("vf")]
    assert coefs @ (vv @ coefs) == pytest.approx(expected, rel=1e-10)


def test_ghost_forms_symmetric_psd_with_kernels(disc8, disc8_q2):
    """All four ghost matrices: symmetric, PSD, vanish on interpolants of
    global polynomials of the space's order."""
    for disc in (disc8, disc8_q2):
        forms = assemble_forms(disc)
        for name, block in (("ghost_vf", "vf"), ("ghost_p", "p"),
                            ("ghost_vs", "vs"), ("ghost_u", "u")):
            G = getattr(forms, name)
            assert abs(G - G.T).max() < 1e-12
            rng = np.random.default_rng(1)
            dm = disc.dofmap(block)
            for _ in range(5):
                x = rng.standard_normal(dm.n_scalar)
                assert x @ (G @ x) >= -1e-12
            c = dm.node_coords
            polys = [np.ones(dm.n_scalar), c[:, 0], c[:, 1], c[:, 0] * c[:, 1]]
            if dm.order == 2:
                polys += [c[:, 0] ** 2 * c[:, 1] ** 2, c[:, 0] ** 2, c[:, 1] ** 2]
            for p in polys:
                assert p @ (G @ p) == pytest.approx(0.0, abs=1e-12)


def test_raw_jump_matrix_scaling(disc8):
    """Doubling w_max at kappa=0 doubles the weight of every face term."""
    r1 = raw_jump_matrices(disc8, "s", 1, w_max=1.0)
    # with w_max = 1 all weights w(kappa) equal 1/2, so w_F = 1 for each face
    rng = np.random.default_rng(2)
    x = rng.standard_normal(disc8.s.n_scalar)
    q1 = x @ (r1[0] @ x)
    assert q1 > 0


def test_nitsche_penalty_psd_kernel(disc8, forms8):
    """Penalty matrix is PSD and vanishes when v_f = v_s on the interface
    (equal constant fields)."""
    lay = disc8.layout
    P = forms8.nitsche_pen
    x = np.zeros(lay.n_system)
    x[lay.off_vf:lay.off_vf + disc8.vf.n_scalar] = 1.0
    x[lay.off_vs:lay.off_vs + disc8.s.n_scalar] = 1.0
    assert abs(x @ (P @ x)) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.standard_normal(lay.n_system)
        assert y @ (P @ y) >= -1e-12


def dense_nitsche_penalty(disc):
    """Penalty h^-1 rho_f nu_f gamma_N (v_f - v_s, phi_f - phi_s)_Gamma as a
    dense matrix: the scalar interface mass of each (test, trial) pair of
    spaces, repeated on both components by a Kronecker product."""
    cfg, lay = disc.cfg, disc.layout
    pen = cfg.rho_f * cfg.nu_f * cfg.gamma_N / disc.h
    P = np.zeros((lay.n_system, lay.n_system))
    for cell, rule in disc.iface_rules.items():
        spaces = []
        for block, order, sign in (("vf", cfg.m_f, 1.0), ("vs", cfg.m_s, -1.0)):
            dm = disc.dofmap(block)
            ids = lay.offset(block) + np.concatenate(
                [c * dm.n_scalar + dm.cell_dofs[dm.cell_index[cell]] for c in range(2)])
            N = disc.tables_at(order, cell, rule.points)[0]
            spaces.append((ids, sign, N))
        for rows, sr, Nr in spaces:
            for cols, sc, Nc in spaces:
                local = pen * sr * sc * Nr.T @ (rule.weights[:, None] * Nc)
                P[np.ix_(rows, cols)] += np.kron(np.eye(2), local)
    return P


@pytest.mark.parametrize("m_s", [1, 2])
def test_nitsche_penalty_no_stored_zeros(disc8, disc8_q2, m_s):
    """The penalty stores no zero cross-component blocks and equals the
    component-wise interface mass."""
    disc = disc8 if m_s == 1 else disc8_q2
    P = assemble_forms(disc).nitsche_pen
    assert np.count_nonzero(P.data == 0.0) == 0
    dense = dense_nitsche_penalty(disc)
    assert P.nnz == np.count_nonzero(dense)
    assert np.abs(P.toarray() - dense).max() <= 1e-15 * np.abs(dense).max()


def test_solid_bulk_rigid_modes(disc8, forms8):
    """a_s(u, phi) = 0 for rigid displacements u (translations, rotation)."""
    su = forms8.solid_bulk
    ns = disc8.s.n_scalar
    c = disc8.s.node_coords
    tx = np.concatenate([np.ones(ns), np.zeros(ns)])
    rot = np.concatenate([-c[:, 1], c[:, 0]])
    for mode in (tx, rot):
        assert np.abs(su @ mode).max() < 1e-10


def test_system_matrix_dimension(disc8):
    lay = disc8.layout
    expected = 2 * disc8.vf.n_scalar + disc8.p.n_scalar + 4 * disc8.s.n_scalar
    assert lay.total == expected


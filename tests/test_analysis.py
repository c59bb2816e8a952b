"""Norms, energies, error evaluation and the ghost-extension probe."""

import numpy as np
import pytest

import assembly_oracle as coo
from cutfsi import (Discretization, SimulationConfig, TimeStepper,
                    convergence_order, error_vs_reference,
                    ghost_extension_ratios, run_simulation, verify_energy_decay)
from cutfsi.analysis import (Analyzer, domain_points, evaluate_scalar,
                             locate_cells, random_smooth_state)
from cutfsi.assembly import SCALAR_KERNELS, assemble_forms

R2 = 0.75
AREA_S = np.pi * R2
AREA_F = 4.0 - AREA_S


def test_convergence_order():
    assert convergence_order(4.0, 1.0) == pytest.approx(2.0)
    assert convergence_order(0.71550, 0.29700) == pytest.approx(1.2685, abs=1e-3)


@pytest.fixture(scope="module")
def an8(disc8):
    return Analyzer(disc8, assemble_forms(disc8))


def oracle_norm2(disc, block, coefs, domain, operator="value"):
    """Squared L2 norm of a field (or its gradient) over Omega_i ("physical")
    or Omega_i^T ("extended"), from the COO oracle's scalar matrix."""
    M = coo.assemble_cells(disc, SCALAR_KERNELS[operator], block, domain=domain)
    return Analyzer.quad_form(M, coefs, disc.dofmap(block).ncomp)


def test_locate_cells(disc8):
    pts = np.array([[-0.99, -0.99], [0.0, 0.0], [0.99, 0.99]])
    cells = locate_cells(disc8, pts)
    n = disc8.cfg.n
    h = disc8.h
    assert cells[0] == 0
    assert cells[2] == n * n - 1
    for p, c in zip(pts, cells):
        x0, y0 = disc8.mesh.cell_origin(c)
        assert x0 - 1e-12 <= p[0] <= x0 + h + 1e-12
        assert y0 - 1e-12 <= p[1] <= y0 + h + 1e-12


def test_evaluate_scalar_linear(disc8):
    """A field with nodal values x + 2y is reproduced exactly."""
    dm = disc8.dofmap("vf")
    coords = dm.node_coords
    coefs = coords[:, 0] + 2.0 * coords[:, 1]
    pts = np.array([[-0.9, -0.9], [0.9, 0.3]])
    cells = locate_cells(disc8, pts)
    vals = evaluate_scalar(disc8, "vf", coefs, pts, cells)
    assert np.allclose(vals, pts[:, 0] + 2.0 * pts[:, 1], atol=1e-12)
    dx = evaluate_scalar(disc8, "vf", coefs, pts, cells, dx=1)
    dy = evaluate_scalar(disc8, "vf", coefs, pts, cells, dy=1)
    assert np.allclose(dx, 1.0, atol=1e-11)
    assert np.allclose(dy, 2.0, atol=1e-11)


def test_domain_points_measure(disc8):
    for side, area in (("f", AREA_F), ("s", AREA_S)):
        pts, w, cells = domain_points(disc8, side)
        assert w.sum() == pytest.approx(area, abs=1e-10)
        assert len(pts) == len(w) == len(cells)


def test_field_norm_constant(disc8):
    """|| (1,1) ||^2 is 2 |Omega_i| on the physical domain and 2 h^2 times
    the cell count of T_i^h on the extended one."""
    h2 = disc8.h ** 2
    for block, side, area in (("vs", "s", AREA_S), ("vf", "f", AREA_F)):
        ones = np.ones(2 * disc8.dofmap(block).n_scalar)
        assert oracle_norm2(disc8, block, ones, "physical") == pytest.approx(
            2 * area, rel=1e-10)
        assert oracle_norm2(disc8, block, ones, "extended") == pytest.approx(
            2 * h2 * len(disc8.topo.tri_cells(side)), rel=1e-12)


def test_field_norm_gradient(disc8):
    """|| grad(x, 0) ||^2 is |Omega_s| on the physical solid domain and h^2
    times the solid cell count on the extended one."""
    x = disc8.dofmap("vs").node_coords[:, 0]
    coefs = np.concatenate([x, np.zeros_like(x)])
    assert oracle_norm2(disc8, "vs", coefs, "physical", "gradient") == pytest.approx(
        AREA_S, rel=1e-10)
    assert oracle_norm2(disc8, "vs", coefs, "extended", "gradient") == pytest.approx(
        disc8.h ** 2 * len(disc8.topo.tri_cells("s")), rel=1e-12)


def test_energy_zero_state(an8, disc8):
    stepper = TimeStepper(disc8)
    e = an8.energy(stepper.initialize())
    assert all(v == 0.0 for v in e.values())
    assert an8.lyapunov(stepper.initialize()) == 0.0


def test_energy_terms_match_definitions(an8, disc8):
    """The energies equal their definitions on the COO oracle's scalar
    matrices: the L2 norms over Omega_f and Omega_s (physical) and over
    Omega_s^T and Omega_f^T (extended), and trace2 equals h^-1 |v_f - v_s|^2
    summed over the interface arcs."""
    cfg, lay = disc8.cfg, disc8.layout
    state = random_smooth_state(disc8, seed=5)
    vf, vs, u = (state.x[lay.slice(b)] for b in ("vf", "vs", "u"))
    e = an8.energy(state)
    E_T2 = (0.5 * cfg.rho_f * oracle_norm2(disc8, "vf", vf, "physical")
            + 0.5 * cfg.rho_s * oracle_norm2(disc8, "vs", vs, "extended")
            + cfg.mu_s * oracle_norm2(disc8, "u", u, "extended", "gradient"))
    assert e["E_T2"] == pytest.approx(E_T2, rel=1e-12)
    triple2 = (cfg.rho_f * cfg.nu_f * oracle_norm2(disc8, "vf", vf, "extended", "gradient")
               + cfg.rho_f * cfg.nu_f * cfg.gamma_N * e["trace2"] + e["g_p"])
    assert e["triple2"] == pytest.approx(triple2, rel=1e-12)
    Q = (0.5 * cfg.rho_f * oracle_norm2(disc8, "vf", vf, "physical")
         + 0.5 * cfg.rho_s * oracle_norm2(disc8, "vs", vs, "physical")
         + 0.5 * cfg.rho_s * e["g_vs"] + cfg.mu_s * e["g_u"]
         + 0.5 * an8.quad_form(an8.forms.solid_bulk, u))
    assert an8.lyapunov(state) == pytest.approx(Q, rel=1e-12)
    rules = disc8.iface_rules
    cells = np.repeat(rules.cells, np.diff(rules.offsets))
    pts, w = rules.points, rules.weights
    jump2 = sum(w @ (evaluate_scalar(disc8, "vf", vf, pts, cells, c)
                     - evaluate_scalar(disc8, "vs", vs, pts, cells, c)) ** 2
                for c in range(2))
    assert e["trace2"] == pytest.approx(jump2 / disc8.h, rel=1e-10)


def test_energy_nonnegative_random(an8, disc8):
    state = random_smooth_state(disc8, seed=3)
    e = an8.energy(state)
    for key, val in e.items():
        assert val >= 0.0, key
    assert an8.lyapunov(state) >= 0.0


def test_error_vs_reference_self_is_zero():
    disc, _, states = run_simulation(SimulationConfig(n=8))
    errs = error_vs_reference(disc, states, disc, states)
    for key, val in errs.items():
        assert val <= 1e-13, key


def test_error_vs_reference_nested_constant(disc8, disc16, march):
    """A coarse/fine pair of identically-zero runs has zero error."""
    s8 = TimeStepper(disc8)
    s16 = TimeStepper(disc16)
    s8.g_profile = np.zeros_like(s8.g_profile)
    s16.g_profile = np.zeros_like(s16.g_profile)
    errs = error_vs_reference(disc8, march(s8), disc16, march(s16))
    for key, val in errs.items():
        assert val <= 1e-13, key


def test_error_vs_reference_rejects_non_nested():
    disc8, _, states = run_simulation(SimulationConfig(n=8))
    disc12 = Discretization(SimulationConfig(n=12))
    with pytest.raises(ValueError):
        error_vs_reference(disc8, states, disc12, states)


def test_ghost_ratios_positive(disc8):
    ratio = ghost_extension_ratios(disc8, side="f", order=2, l=1,
                                   w_max=1.0, seed=0)
    assert np.isfinite(ratio) and ratio > 0.0


def test_ghost_ratios_reject_unknown_sampler(disc8):
    """An unknown sampler is refused before any sample is drawn."""
    with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
        ghost_extension_ratios(disc8, "f", 2, 1, w_max=1.0, sampler="bogus")


def test_energy_decay_small(disc8):
    ok, history, violation = verify_energy_decay(disc8, n_steps=6, seed=1)
    assert ok, f"energy increased by relative {violation}"
    assert len(history) >= 6
    assert history[0] > 0.0

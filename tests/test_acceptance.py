"""End-to-end acceptance checks.

These pin the headline results: exact cut geometry, spatial and temporal
convergence orders against nested reference runs, unconditional energy
decay, h-uniform boundedness (and necessity) of the ghost-penalty
extension estimate, and exactness of the discrete building blocks.
They are slower than the unit tests; the refinement studies reuse
module-scoped caches.
"""

import numpy as np
import pytest

from cutfsi import (Discretization, SimulationConfig, TimeStepper,
                    ghost_extension_ratios, run_simulation, spatial_study,
                    temporal_study, verify_energy_decay)
from cutfsi.analysis import domain_points
from cutfsi.assembly import assemble_forms
from cutfsi.quadrature import interface_rule

R2 = 0.75
NORMS = ("vf_T", "vs_T", "grad_u_T", "grad_vf_I", "h_grad_p_I")


# -- 1. geometry --------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 16, 32])
def test_exact_cut_geometry(n):
    disc = Discretization(SimulationConfig(n=n))
    _, w, _ = domain_points(disc, "s")
    assert abs(float(w.sum()) - np.pi * R2) < 1e-8
    length = sum(interface_rule(disc.mesh, disc.topo, int(c)).total
                 for c in disc.topo.cut_cells)
    assert abs(length - 2 * np.pi * np.sqrt(R2)) < 1e-10


# -- 2/3. spatial convergence -------------------------------------------------

@pytest.fixture(scope="module")
def spatial_ms2():
    cfg = SimulationConfig(n=8, m_s=2, k=1.0, T=8.0)
    return spatial_study(cfg, n_levels=[8, 16, 32, 64], n_ref=128)


@pytest.fixture(scope="module")
def spatial_ms1():
    cfg = SimulationConfig(n=8, m_s=1, k=1.0, T=8.0)
    return spatial_study(cfg, n_levels=[8, 16, 32, 64], n_ref=128)


def test_spatial_orders_quadratic_solid(spatial_ms2):
    last = spatial_ms2.orders()[-1]
    assert last["vf_T"] >= 2.3
    assert 1.7 <= last["grad_u_T"] <= 2.6
    assert last["grad_vf_I"] >= 1.5
    assert 1.5 <= last["h_grad_p_I"] <= 2.8


def test_spatial_orders_linear_solid(spatial_ms1):
    last = spatial_ms1.orders()[-1]
    assert 0.75 <= last["grad_u_T"] <= 1.3
    assert last["vs_T"] >= 1.8


def test_spatial_errors_decrease(spatial_ms2, spatial_ms1):
    for rep in (spatial_ms2, spatial_ms1):
        for key in NORMS:
            errs = [e[key] for e in rep.errors]
            assert all(b < a for a, b in zip(errs, errs[1:])), key


# -- 4. temporal convergence --------------------------------------------------

@pytest.fixture(scope="module")
def temporal():
    cfg = SimulationConfig(n=32, m_s=2, T=8.0)
    return temporal_study(cfg, k_levels=[1.0, 0.5, 0.25], k_ref=0.125)


def test_temporal_orders_first_order(temporal):
    for row in temporal.orders():
        for key in NORMS:
            assert 0.6 <= row[key] <= 1.8, (key, row[key])


# -- 5. energy stability ------------------------------------------------------

def test_energy_decay_five_seeds():
    disc = Discretization(SimulationConfig(n=8, k=0.5, gamma_N=100.0))
    for seed in range(5):
        ok, hist, viol = verify_energy_decay(disc, n_steps=22, seed=seed,
                                             tol=1e-9)
        assert len(hist) >= 20
        assert ok, f"seed {seed}: energy grew at step {viol}"


# -- 6. ghost-penalty extension estimate --------------------------------------

@pytest.fixture(scope="module")
def ghost_discs():
    return {(n, m_s): Discretization(SimulationConfig(n=n, m_s=m_s))
            for n in (8, 16, 32) for m_s in (1, 2)}


@pytest.mark.parametrize("side,order", [("f", 1), ("f", 2), ("s", 1), ("s", 2)])
@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("w_max", [1.0, 4.0])
def test_ghost_extension_uniform(ghost_discs, side, order, l, w_max):
    m_s = order if side == "s" else 1
    ratios = [ghost_extension_ratios(ghost_discs[(n, m_s)], side, order, l,
                                     w_max=w_max, seed=0)
              for n in (8, 16, 32)]
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) <= 2.0, ratios


def test_ghost_extension_necessity(ghost_discs):
    """Dropping the jump terms breaks h-uniformity (fluid gradient case)."""
    ratios = [ghost_extension_ratios(ghost_discs[(n, 1)], "f", 2, 1,
                                     w_max=1.0, gamma_on=False,
                                     sampler="cell", seed=0)
              for n in (8, 16, 32)]
    assert ratios[-1] / ratios[0] >= 5.0, ratios


# -- 7/8. discrete building blocks and per-step residuals ---------------------

def test_q1_reference_mass_matrix(disc8):
    """Element Q1 mass matrix on an uncut cell matches the closed form."""
    from cutfsi.assembly import _mass
    t = disc8.full_cell_tables(1)
    local = _mass(t[0], t[0], disc8.full_cell_weights)
    h2 = disc8.h ** 2
    ref = (h2 / 36.0) * np.array([[4.0, 2.0, 2.0, 1.0],
                                  [2.0, 4.0, 1.0, 2.0],
                                  [2.0, 1.0, 4.0, 2.0],
                                  [1.0, 2.0, 2.0, 4.0]])
    assert np.max(np.abs(local - ref)) < 1e-14


def test_ghost_forms_psd_with_polynomial_kernels():
    for m_s in (1, 2):
        disc = Discretization(SimulationConfig(n=8, m_s=m_s))
        forms = assemble_forms(disc)
        for name, block in (("ghost_vf", "vf"), ("ghost_p", "p"),
                            ("ghost_vs", "vs"), ("ghost_u", "u")):
            G = getattr(forms, name)
            assert abs(G - G.T).max() < 1e-12
            dm = disc.dofmap(block)
            rng = np.random.default_rng(0)
            for _ in range(3):
                x = rng.standard_normal(dm.n_scalar)
                assert x @ (G @ x) >= -1e-12
            c = dm.node_coords
            polys = [np.ones(dm.n_scalar), c[:, 0], c[:, 1], c[:, 0] * c[:, 1]]
            if dm.order == 2:
                polys += [c[:, 0] ** 2, c[:, 1] ** 2,
                          c[:, 0] ** 2 * c[:, 1] ** 2]
            for p in polys:
                assert abs(p @ (G @ p)) < 1e-12


@pytest.fixture(scope="module")
def full_run():
    return run_simulation(SimulationConfig(n=32, m_s=2, k=1.0, T=8.0))


def test_solve_residual_every_step(full_run):
    _, records, _ = full_run
    assert len(records) == 8
    for r in records:
        assert r.solve_residual <= 1e-10, (r.n, r.solve_residual)


def test_displacement_velocity_consistency(full_run):
    """u^n - u^{n-1} = k v_s^n holds to near machine precision each step."""
    disc, records, states = full_run
    lay = disc.layout
    k = disc.cfg.k
    for prev, cur in zip(states[:-1], states[1:]):
        du = cur.x[lay.slice("u")] - prev.x[lay.slice("u")]
        err = np.max(np.abs(du - k * cur.x[lay.slice("vs")]))
        assert err <= 1e-9, (cur.index, err)
    for r in records:
        assert r.constraint_residual <= 1e-9

"""Norms, energies, error evaluation and the ghost-extension probe."""

import inspect
import itertools
import math
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

import assembly_oracle as coo
from cutfsi import analysis
from cutfsi import (ConfigError, Discretization, ErrorReport, SimulationConfig,
                    TimeStepper, convergence_order, error_vs_reference,
                    ghost_extension_ratios, run_simulation, verify_energy_decay)
from cutfsi.analysis import (ERROR_NORMS, Analyzer, domain_points, locate_cells,
                             point_eval_matrices, random_smooth_state)
from cutfsi.assembly import SCALAR_KERNELS, assemble_forms
from cutfsi.fem import reference_basis

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
    """The point-evaluation matrices reproduce a field with nodal values
    x + 2y, and its derivatives, exactly."""
    dm = disc8.dofmap("vf")
    coords = dm.node_coords
    coefs = coords[:, 0] + 2.0 * coords[:, 1]
    pts = np.array([[-0.9, -0.9], [0.9, 0.3]])
    cells = locate_cells(disc8, pts)
    vals, dx, dy = (E @ coefs for E in point_eval_matrices(disc8, "vf", pts, cells))
    assert np.allclose(vals, pts[:, 0] + 2.0 * pts[:, 1], atol=1e-12)
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
    assert stepper.lyapunov(stepper.initialize()) == 0.0


def test_energy_terms_match_definitions(an8, disc8):
    """The energies equal their definitions on the COO oracle's scalar
    matrices: the L2 norms over Omega_f and Omega_s (physical) and over
    Omega_s^T and Omega_f^T (extended), and trace2 equals h^-1 |v_f - v_s|^2
    summed over the interface arcs.  The stepper's Q^n, taken from its step
    matrices M and K, equals its definition on the oracle's forms."""
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
         + 0.5 * u @ (coo.assemble_forms(disc8).solid_bulk @ u))
    assert TimeStepper(disc8).lyapunov(state) == pytest.approx(Q, rel=1e-12)
    rules = disc8.iface_rules
    cells = np.repeat(rules.cells, np.diff(rules.offsets))
    pts, w = rules.points, rules.weights
    E_f, E_s = (point_eval_matrices(disc8, b, pts, cells)[0] for b in ("vf", "vs"))
    jump2 = sum(w @ (E_f @ a - E_s @ b) ** 2
                for a, b in zip(vf.reshape(2, -1), vs.reshape(2, -1)))
    assert e["trace2"] == pytest.approx(jump2 / disc8.h, rel=1e-10)


def test_energy_nonnegative_random(an8, disc8):
    state = random_smooth_state(disc8, seed=3)
    e = an8.energy(state)
    for key, val in e.items():
        assert val >= 0.0, key
    assert TimeStepper(disc8).lyapunov(state) >= 0.0


def test_error_vs_reference_self_is_zero():
    disc, _, states = run_simulation(SimulationConfig(n=8))
    errs = error_vs_reference(disc, states, disc, states)
    for key, val in errs.items():
        assert val <= 1e-13, key


def test_error_vs_reference_nested_constant():
    """A coarse/fine pair of identically-zero (lid-free) runs has zero error."""
    (d8, _, s8), (d16, _, s16) = (run_simulation(SimulationConfig(n=n, peak_inflow=0.0))
                                  for n in (8, 16))
    errs = error_vs_reference(d8, s8, d16, s16)
    for key, val in errs.items():
        assert val <= 1e-13, key


@pytest.fixture(scope="module")
def runs_8_16():
    """(disc, every state) of the runs at n = 8 and n = 16, T = 4."""
    return [run_simulation(SimulationConfig(n=n, T=4.0))[::2] for n in (8, 16)]


@pytest.mark.parametrize("s", [-560, 520])
def test_error_vs_reference_exact_under_scaling(s, runs_8_16):
    """Both trajectories times 2^s give each error norm times 2^s bit for
    bit, although the squares of their differences underflow to 0
    (s = -560, about 1e-169) or overflow to inf (s = 520, about 3e156)."""
    (d8, s8), (d16, s16) = runs_8_16
    want = error_vs_reference(d8, s8, d16, s16)
    s8, s16 = ([replace(state, x=np.ldexp(state.x, s)) for state in states]
               for states in (s8, s16))
    got = error_vs_reference(d8, s8, d16, s16)
    assert got == {key: math.ldexp(value, s) for key, value in want.items()}


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf, 1e-310])
def test_orders_refuse_an_error_that_is_not_positive(value):
    """An error that is 0, as when the lid stays at rest for the whole run
    (ramp_time = 1e300), not finite, or subnormal has no order: the report
    is refused when it is built, with a ConfigError naming the norm and the
    level.  A single level has no order, so none is refused."""
    errors = [dict.fromkeys(ERROR_NORMS, 1.0),
              {**dict.fromkeys(ERROR_NORMS, 0.5), "grad_u_T": value}]
    with pytest.raises(ConfigError, match=rf"^the grad_u_T error at h=0\.125 is {value:g}, "
                                          "so no order can be measured$"):
        ErrorReport(mode="space", levels=[0.25, 0.125], errors=errors)
    assert ErrorReport(mode="time", levels=[0.5], errors=errors[1:]).orders() == []


def test_study_refuses_the_errors_of_a_subnormal_lid():
    """At a lid speed of 1e-320 the states are subnormal and carry a
    round-off of their own order, and so do the errors: the study is
    refused, naming the first norm and level, instead of reporting orders
    of that round-off."""
    cfg = SimulationConfig(n=8, peak_inflow=1e-320)
    with pytest.raises(ConfigError, match=r"^the vf_T error at k=1 is \S+e-321, "
                                          "so no order can be measured$"):
        analysis.temporal_study(cfg, [1.0, 0.5], 0.25)


def test_study_of_a_tiny_lid_keeps_the_orders():
    """At a lid speed of 1e-160, whose squared errors would underflow, a
    study measures the orders of the default lid 0.2: the problem is linear
    and the error norms scale before they square."""
    cfg = SimulationConfig(n=8)
    want, = analysis.temporal_study(cfg, [1.0, 0.5], 0.25).orders()
    got, = analysis.temporal_study(cfg.replace(peak_inflow=1e-160), [1.0, 0.5], 0.25).orders()
    assert got == pytest.approx(want, rel=1e-12)


def test_error_vs_reference_rejects_non_nested():
    disc8, _, states = run_simulation(SimulationConfig(n=8))
    disc12 = Discretization(SimulationConfig(n=12))
    with pytest.raises(ValueError):
        error_vs_reference(disc8, states, disc12, states)


def test_error_vs_reference_rejects_other_end_time():
    """A nested time grid is not enough: both runs must end at one T."""
    disc, _, states = run_simulation(SimulationConfig(n=8, k=1.0, T=2.0))
    _, _, states_r = run_simulation(SimulationConfig(n=8, k=1.0, T=4.0))
    with pytest.raises(ValueError, match=r"t=2 .*t=4 "):
        error_vs_reference(disc, states, disc, states_r)


def test_error_vs_reference_rejects_one_state_trajectory(disc8):
    """A trajectory of the initial state alone has no step to compare."""
    states = [TimeStepper(disc8).initialize()]
    with pytest.raises(ValueError, match="at least one step"):
        error_vs_reference(disc8, states, disc8, states)


def oracle_point_map(disc, block, pts, cells, dx=0, dy=0):
    """(npts, n_scalar) map to one derivative d^dx_x d^dy_y of a scalar
    component, tabulated by ``ReferenceBasis.eval``."""
    dm = disc.dofmap(block)
    ref = (pts - disc.mesh.cell_origin(cells)) / disc.h
    table = reference_basis(dm.order).eval(ref, dx=dx, dy=dy) / disc.h ** (dx + dy)
    npts, nb = table.shape
    return sp.csr_matrix((table.ravel(), dm.cell_dofs[dm.cell_index[cells]].ravel(),
                          np.arange(0, npts * nb + 1, nb)), shape=(npts, dm.n_scalar))


def oracle_errors(disc_c, states_c, disc_r, states_r):
    """``error_vs_reference`` one state, component and derivative at a time."""
    ref_states = states_r[::(len(states_r) - 1) // (len(states_c) - 1)]
    points = {side: domain_points(disc_c, side) for side in ("f", "s")}

    def diff2(block, a, b, dx=0, dy=0):
        pts, w, cells = points[disc_c.dofmap(block).side]
        total = 0.0
        for c in range(disc_c.dofmap(block).ncomp):
            vals = []
            for disc, state, at in ((disc_r, b, locate_cells(disc_r, pts)),
                                    (disc_c, a, cells)):
                ns = disc.dofmap(block).n_scalar
                coefs = state.x[disc.layout.slice(block)][c * ns:(c + 1) * ns]
                vals.append(oracle_point_map(disc, block, pts, at, dx, dy) @ coefs)
            total += w @ (vals[0] - vals[1]) ** 2
        return total

    grad = ((1, 0), (0, 1))
    last = states_c[-1], ref_states[-1]
    pairs = list(zip(states_c[1:], ref_states[1:]))
    k = disc_c.cfg.k
    return {"vf_T": np.sqrt(diff2("vf", *last)), "vs_T": np.sqrt(diff2("vs", *last)),
            "grad_u_T": np.sqrt(sum(diff2("u", *last, *d) for d in grad)),
            "grad_vf_I": np.sqrt(k * sum(diff2("vf", a, b, *d)
                                         for a, b in pairs for d in grad)),
            "h_grad_p_I": disc_c.h * np.sqrt(k * sum(diff2("p", a, b, *d)
                                                     for a, b in pairs for d in grad))}


@lru_cache(maxsize=None)
def study_runs(m_s, n_c, n_r):
    """A coarse and a nested reference run, k = 1, T = 2."""
    return tuple(run_simulation(SimulationConfig(n=n, m_s=m_s, k=1.0, T=2.0))
                 for n in (n_c, n_r))


@pytest.mark.parametrize("m_s", [1, 2])
@pytest.mark.parametrize("n_c, n_r", [(8, 16), (6, 12)])
def test_error_vs_reference_matches_per_state_oracle(m_s, n_c, n_r):
    (disc_c, _, states_c), (disc_r, _, states_r) = study_runs(m_s, n_c, n_r)
    got = error_vs_reference(disc_c, states_c, disc_r, states_r)
    want = oracle_errors(disc_c, states_c, disc_r, states_r)
    for key in analysis.ERROR_NORMS:
        assert want[key] > 0.0
        assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0.0), key


def test_error_vs_reference_tabulates_once_per_level_and_space(monkeypatch):
    """3 spaces (v_f, p, and the solid space of v_s and u) x 2 levels."""
    calls = []
    real = Discretization.tabulate

    def counting(self, order, cells, pts):
        calls.append(self.mesh.n)
        return real(self, order, cells, pts)
    (disc_c, _, states_c), (disc_r, _, states_r) = study_runs(2, 8, 16)
    monkeypatch.setattr(Discretization, "tabulate", counting)
    error_vs_reference(disc_c, states_c, disc_r, states_r)
    assert sorted(calls) == [8] * 3 + [16] * 3


def test_temporal_study_builds_one_discretization(monkeypatch):
    """A temporal study runs its reference and every level on one
    ``Discretization``, and its errors equal, bit for bit, those of one
    ``run_simulation`` per level against one of the reference."""
    cfg = SimulationConfig(n=8)
    disc_r, _, states_r = run_simulation(cfg.replace(k=0.25))
    want = []
    for k in (1.0, 0.5):
        disc_c, _, states_c = run_simulation(cfg.replace(k=k))
        want.append(error_vs_reference(disc_c, states_c, disc_r, states_r))
    built = []
    init = Discretization.__init__

    def counting(self, cfg):
        built.append(cfg)
        init(self, cfg)
    monkeypatch.setattr(Discretization, "__init__", counting)
    report = analysis.temporal_study(cfg, [1.0, 0.5], 0.25)
    assert built == [cfg.replace(k=0.25)]
    assert report.levels == [1.0, 0.5]
    assert repr(report.errors) == repr(want)  # repr tells every float apart


def test_ghost_ratios_positive(disc8):
    ratio = ghost_extension_ratios(disc8, side="f", order=2, l=1,
                                   w_max=1.0, seed=0)
    assert np.isfinite(ratio) and ratio > 0.0


def test_ghost_ratios_reject_unknown_sampler(disc8):
    """An unknown sampler is refused before any sample is drawn."""
    with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
        ghost_extension_ratios(disc8, "f", 2, 1, w_max=1.0, sampler="bogus")


@pytest.mark.parametrize("args,match", [
    (("f", 2, -1), "l must be 0 or 1, got -1"),
    (("f", 2, 2), "l must be 0 or 1, got 2"),
    (("x", 2, 1), "unknown side 'x'"),
    (("s", 3, 1), "side 's' has no space of order 3"),
], ids=["l-1", "l2", "side", "order"])
def test_ghost_ratios_reject_bad_arguments(disc8_q2, args, match):
    """A bad side, order or l is refused by name before any form is built."""
    before = set(disc8_q2.ghost_bands)
    with pytest.raises(ValueError, match=match):
        ghost_extension_ratios(disc8_q2, *args, w_max=1.0)
    assert set(disc8_q2.ghost_bands) == before


def test_ghost_band_built_once_per_space(monkeypatch):
    """l = 0 and then l = 1 on one space share one band record and one call
    of raw_jump_matrices; another w_max or gamma_on builds a new record."""
    calls = []
    real = analysis.raw_jump_matrices

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(analysis, "raw_jump_matrices", counting)
    disc = Discretization(SimulationConfig(n=8, m_s=2))
    for l in (0, 1):
        ghost_extension_ratios(disc, "f", 2, l, w_max=1.0)
    assert calls == ["vf"]
    assert list(disc.ghost_bands) == [("f", 2, 1.0, True)]
    record = disc.ghost_bands["f", 2, 1.0, True]
    ghost_extension_ratios(disc, "f", 2, 1, w_max=2.0)
    ghost_extension_ratios(disc, "f", 2, 1, w_max=1.0, gamma_on=False)
    assert calls == ["vf"] * 2  # no jumps without the jump terms
    assert list(disc.ghost_bands) == [("f", 2, w, g) for w, g in
                                      ((1.0, True), (2.0, True), (1.0, False))]
    assert disc.ghost_bands["f", 2, 1.0, True] is record


def test_ghost_necessity_depends_on_the_draw():
    """The sampled necessity probe (gamma = 0, fluid, l = 1, "cell"
    sampler), which ``tests/test_acceptance.py`` draws at seed 0, on the
    meshes n = 8, 16, 32 of the default circle: the draws of seed 0 spread
    by max/min >= 5 (15932.1, 7933.7, 126704.6); those of seed 3 spread by
    2.27 only, so a sampled verdict is an artefact of the draw.  So
    ``cutfsi verify`` counts the rhs's kernel instead
    (``test_ghost_necessity_counts_the_rhs_kernel``)."""
    cfg = SimulationConfig()
    discs = [Discretization(cfg.replace(n=n, k=0.5, T=11.0)) for n in (8, 16, 32)]

    def spread(seed):
        ratios = [ghost_extension_ratios(disc, "f", 2, 1, cfg.w_max, gamma_on=False,
                                         sampler="cell", seed=seed) for disc in discs]
        return max(ratios) / min(ratios)
    assert spread(0) >= 5.0
    assert spread(3) < 5.0


@pytest.mark.parametrize("r2", [0.75, 0.9])
def test_ghost_necessity_counts_the_rhs_kernel(r2, monkeypatch):
    """The necessity line of ``verify_checks`` counts the fluid velocity
    band dofs whose row of the jump-free l = 1 rhs stores only zeros.  On
    n = 8 and 16 that count is the dimension of the jump-free rhs's kernel,
    for l = 0 and 1, by dense eigvalsh (eigenvalues of at most 1e-12 of the
    largest), and with the jumps on no row is zero.  The line draws
    nothing: the checks call ``ghost_extension_ratios`` 18 times, each
    with the jump terms and the "band" sampler."""
    calls = []
    real = analysis.ghost_extension_ratios
    signature = inspect.signature(real)

    def counting(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(analysis, "ghost_extension_ratios", counting)
    cfg = SimulationConfig(radius_squared=r2)
    label, ok, detail = list(itertools.islice(analysis.verify_checks(cfg), 19))[-1]
    assert label == "ghost necessity (gamma=0, fluid, l=1)" and ok
    counts = [int(c) for c in re.fullmatch(
        r"rhs vanishes on (\d+), (\d+), (\d+) band functions", detail).groups()]
    assert len(calls) == 18
    for bound in calls:
        bound.apply_defaults()
        assert (bound.arguments["gamma_on"], bound.arguments["sampler"]) == (True, "band")
    for n, count in zip((8, 16), counts):
        disc = Discretization(cfg.replace(n=n))
        for l in (0, 1):
            ev = np.linalg.eigvalsh(analysis.ghost_band(disc, "f", cfg.m_f, cfg.w_max,
                                                        False).rhs[l].toarray())
            assert np.count_nonzero(ev <= 1e-12 * ev.max()) == count > 0
        rhs = analysis.ghost_band(disc, "f", cfg.m_f, cfg.w_max, True).rhs[1]
        assert len(np.unique(rhs.nonzero()[0])) == rhs.shape[0]


def test_energy_decay_small(disc8):
    ok, history, violation = verify_energy_decay(disc8, n_steps=6, seed=1)
    assert ok, f"energy increased by relative {violation}"
    assert len(history) >= 6
    assert history[0] > 0.0


@pytest.mark.parametrize("n,k", [(8, 0.5), (8, 1 / 16), (16, 1 / 16), (8, 1e-3)])
def test_energy_decay_quadratic_solid(n, k):
    """Q^n falls at every one of 22 lid-free steps with the quadratic
    solid, also at small k, where the k^2 K term of the step matrix is
    far below its mass term."""
    disc = Discretization(SimulationConfig(n=n, m_s=2, k=k))
    ok, history, violation = verify_energy_decay(disc, n_steps=22, seed=1)
    assert ok, f"Q^n grew at step {violation}"
    assert len(history) == 22 and np.all(np.diff(history) < 0.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_energy_decay_reports_growth(seed):
    """On a circle where A's velocity block is indefinite at gamma_N = 100
    (n = 16, r^2 = 0.7642898, m_s = 2), Q^n falls for 4 steps at k = 1/256
    and grows from step 5 to step 12: the check fails and names step 5."""
    disc = Discretization(SimulationConfig(n=16, radius_squared=0.7642898, m_s=2,
                                           k=1 / 256, gamma_vf=1e-3, gamma_p=1e-3,
                                           gamma_N=100.0))
    ok, history, violation = verify_energy_decay(disc, n_steps=12, seed=seed)
    assert (ok, violation) == (False, 5)
    assert len(history) == 12
    assert np.all(np.diff(history[:4]) < 0.0) and np.all(np.diff(history[3:]) > 0.0)


def test_verify_steps_the_five_decay_seeds_on_one_stepper(monkeypatch):
    """``verify_checks`` builds one lid-free stepper for its five decay
    runs, and each of its decay records equals, bit for bit, the one of
    ``verify_energy_decay`` on the same n = 8 discretization and seed."""
    cfg = SimulationConfig()
    built = []

    class Counting(TimeStepper):
        def __init__(self, disc, cfg=None):
            built.append(cfg)
            super().__init__(disc, cfg)

    monkeypatch.setattr(analysis, "TimeStepper", Counting)
    decay = [rec for rec in analysis.verify_checks(cfg) if rec[0].startswith("energy decay")]
    assert len(built) == 1 and built[0].peak_inflow == 0.0
    disc = Discretization(cfg.replace(n=8, k=0.5, T=11.0))
    for s, (label, ok, detail) in enumerate(decay):
        want_ok, hist, _ = verify_energy_decay(disc, seed=s)
        assert (label, ok) == (f"energy decay seed={s}", want_ok)
        assert detail == f"Q drops {hist[0]:.3e} -> {hist[-1]:.3e}"

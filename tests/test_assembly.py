"""Form assembly oracles: mass patterns, kernels, symmetry, PSD-ness, and
equivalence of the batched cut-cell, arc and face assembly with the
per-cell and per-face loops kept here as test-only oracles, and of the
pattern pass with the COO assembly of ``assembly_oracle``."""

import functools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import assembly_oracle as coo
from assembly_oracle import component_ids as _component_ids
from assembly_oracle import div_q
from assembly_oracle import place as _place
from cutfsi import Analyzer, Discretization, SimulationConfig, TimeStepper, assembly
from cutfsi.analysis import GHOST_SAMPLES, ghost_band, ghost_extension_ratios
from cutfsi.assembly import (SCALAR_KERNELS, Forms, _grad_p, _lattice, _lin, _mass,
                             _solid_bulk, _stack, _viscous, assemble_cells,
                             assemble_forms, face_jump_table, operators,
                             raw_jump_matrices, weight_w)
from cutfsi.fem import reference_basis
from cutfsi.linalg import SingularMatrixError
from cutfsi.quadrature import ARC_NPTS, CutParts, cut_cell_rule, gauss_1d
from cutfsi.stepper import system_matrices


@pytest.fixture(scope="module")
def forms8(disc8):
    return assemble_forms(disc8)


@pytest.fixture(scope="module")
def oracle8(disc8):
    """The COO oracle's forms, which include those that the library sums
    into the step matrices only."""
    return coo.assemble_forms(disc8)


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
    ones = np.ones(disc8.s.n_scalar)
    assert ones @ (forms8.mass_solid_scalar @ ones) == pytest.approx(np.pi * 0.75, rel=1e-10)


def test_scalar_mass_additivity(disc8):
    """The oracle's fluid mass on the pressure lattice sums to |Omega_f|, and
    its uncut and cut-part masses add up to it."""
    value = SCALAR_KERNELS["value"]
    Mf = coo.assemble_cells(disc8, value, "p")
    uncut = coo.assemble_cells(disc8, value, "p", domain="uncut")
    ones = np.ones(disc8.p.n_scalar)
    area_f = 4.0 - np.pi * 0.75
    assert ones @ (Mf @ ones) == pytest.approx(area_f, rel=1e-12)
    h2 = disc8.h ** 2
    assert ones @ (uncut @ ones) == pytest.approx(
        h2 * len(disc8.topo.uncut_cells("f")), rel=1e-12)
    parts = disc8.cut_parts["f"]
    assert ones @ ((Mf - uncut) @ ones) == pytest.approx(parts.weights.sum(), rel=1e-12)


@pytest.mark.parametrize("block", ["vf", "p", "vs"])
def test_whole_cell_matrices_match_oracle(disc8, block):
    """The whole-cell matrices over T_i^h and over the uncut cells equal the
    COO oracle's extended and uncut domains (they lie on the side's pattern,
    so only the values are compared)."""
    side = disc8.dofmap(block).side
    for cells, domain in ((disc8.topo.tri_cells(side), "extended"),
                          (disc8.topo.uncut_cells(side), "uncut")):
        for kernel in SCALAR_KERNELS.values():
            got = on_pattern(disc8, block, assemble_cells(disc8, kernel, block, cells))
            assert_same(got, coo.assemble_cells(disc8, kernel, block, domain=domain), 1e-15)


def test_fluid_bulk_skew_pressure(disc8, oracle8):
    """Pressure coupling: b(v, q) blocks are negative transposes, so pressure
    drops out of the energy identity."""
    lay = disc8.layout
    A = oracle8.fluid_bulk
    vp = A[lay.slice("vf"), :][:, lay.slice("p")]
    pv = A[lay.slice("p"), :][:, lay.slice("vf")]
    assert abs(vp + pv.T).max() < 1e-12


def test_viscous_block_symmetry(disc8, oracle8):
    lay = disc8.layout
    A = oracle8.fluid_bulk
    vv = A[lay.slice("vf"), :][:, lay.slice("vf")]
    assert abs(vv - vv.T).max() < 1e-12
    # PSD with constants in the kernel
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(vv.shape[0])
        assert x @ (vv @ x) >= -1e-12
    const = np.ones(vv.shape[0])
    assert np.abs(vv @ const).max() < 1e-12


def test_viscous_energy_against_quadrature(disc8, oracle8):
    """x^T A x equals int 2 rho nu |eps(v)|^2 computed independently at the
    quadrature points for a random interpolated field."""
    from cutfsi.analysis import domain_points, point_eval_matrices
    lay = disc8.layout
    cfg = disc8.cfg
    dm = disc8.vf
    rng = np.random.default_rng(4)
    coefs = rng.standard_normal(2 * dm.n_scalar)
    pts, w, cells = domain_points(disc8, "f")
    _, Dx, Dy = point_eval_matrices(disc8, "vf", pts, cells)
    cx, cy = coefs.reshape(2, -1)
    gxx, gxy, gyx, gyy = Dx @ cx, Dy @ cx, Dx @ cy, Dy @ cy
    eps2 = gxx ** 2 + gyy ** 2 + 0.5 * (gxy + gyx) ** 2
    expected = 2 * cfg.rho_f * cfg.nu_f * np.dot(w, eps2)
    A = oracle8.fluid_bulk
    vv = A[lay.slice("vf"), :][:, lay.slice("vf")]
    assert coefs @ (vv @ coefs) == pytest.approx(expected, rel=1e-10)


def test_lattice_and_jump_tables_cached_read_only():
    """Both tables are pure functions of small ints: repeated calls
    return the same array, which callers cannot overwrite."""
    for make in (lambda: _lattice(2), lambda: _lattice(1, 1),
                 lambda: face_jump_table(2, 1, 0)):
        table = make()
        assert make() is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_raw_jump_matrix_scaling(disc8):
    """Doubling w_max at kappa=0 doubles the weight of every face term."""
    r1 = raw_jump_matrices(disc8, "vs", w_max=1.0)
    # with w_max = 1 all weights w(kappa) equal 1/2, so w_F = 1 for each face
    rng = np.random.default_rng(2)
    x = rng.standard_normal(disc8.s.n_scalar)
    q1 = x @ (on_pattern(disc8, "vs", r1[0]) @ x)
    assert q1 > 0


def test_nitsche_penalty_psd_kernel(disc8, forms8):
    """Penalty matrix is PSD and vanishes when v_f = v_s on the interface
    (equal constant fields)."""
    lay = disc8.layout
    P = forms8.nitsche_pen
    x = np.zeros(lay.n_system)
    x[lay.offset("vf"):lay.offset("vf") + disc8.vf.n_scalar] = 1.0
    x[lay.offset("vs"):lay.offset("vs") + disc8.s.n_scalar] = 1.0
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
    for cell in disc.topo.cut_cells:
        rule = disc.iface_rules[cell]
        spaces = []
        for block, order, sign in (("vf", cfg.m_f, 1.0), ("vs", cfg.m_s, -1.0)):
            dm = disc.dofmap(block)
            ids = lay.offset(block) + np.concatenate(
                [c * dm.n_scalar + dm.cell_dofs[dm.cell_index[cell]] for c in range(2)])
            N = oracle_tables(disc, order, cell, rule.points)[0]
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


def test_solid_bulk_rigid_modes(disc8):
    """a_s(u, phi) = 0 for rigid displacements u (translations, rotation)."""
    arrays = {}
    assemble_forms(disc8, arrays)
    su = _stack(arrays["solid_bulk"], disc8, ("vs",))
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



@pytest.mark.parametrize("m_s", [1, 2])
def test_forms_no_stored_zeros(disc8, disc8_q2, m_s):
    """No assembled form stores explicit zeros (cancelled sums included):
    the fields of ``Forms``, the operators M, A and K, and the step matrix
    R = M + k A + k^2 K at k = 1 and 1/16, summed from one ``operators``
    call.  Every matrix has int32 indices in canonical format."""
    disc = disc8 if m_s == 1 else disc8_q2
    M, A, K, forms = operators(disc)
    mats = {name: getattr(forms, name) for name in forms.__dataclass_fields__}
    mats.update({"M": _stack(M, disc), "A": _stack(A, disc), "K": _stack(K, disc, ("vs",))})
    for k in (1.0, 1 / 16):
        mats[f"R k={k}"] = _stack(_lin((1.0, M), (k, A), (k * k, K), name="step matrix"), disc)
    for name, A in mats.items():
        assert A.nnz > 0, name
        assert np.count_nonzero(A.data == 0.0) == 0, name
        assert A.indices.dtype == A.indptr.dtype == np.int32, name
        assert sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape
                             ).has_canonical_format, name


def test_overflowing_form_is_refused():
    """gamma_u = 1e308 overflows the ghost_u form to inf: assembly refuses
    it by name, without a numpy warning, instead of dropping the whole form
    as the round-off of its infinite largest entry."""
    disc = Discretization(SimulationConfig(n=8, gamma_u=1e308))
    with pytest.raises(SingularMatrixError,
                       match="^form ghost_u overflows to non-finite entries$"):
        assemble_forms(disc)


# -- test-only oracles: one cut cell, arc or ghost face at a time ------------

def oracle_tables(disc, order, cell, pts):
    """(N, Gx, Gy) of one cell's Q_order basis at physical points."""
    basis = reference_basis(order)
    ref = (np.atleast_2d(pts) - disc.mesh.cell_origin(cell)) / disc.h
    return (basis.eval(ref), basis.eval(ref, dx=1) / disc.h,
            basis.eval(ref, dy=1) / disc.h)


def oracle_cells(disc, kernel, row, col=None):
    """Physical-domain cell integral: shared uncut block, then a loop over
    the cut parts with per-cell tables, on 24-point polar rules.  Those
    integrate the forms' polynomials to about 1e-14 h^2, and the 8-point
    rules of ``Discretization.cut_parts`` to only 5e-7 h^2 near the
    circle's centre."""
    rmap, cmap = disc.dofmap(row), disc.dofmap(col or row)
    local = kernel(disc.full_cell_tables(rmap.order),
                   disc.full_cell_tables(cmap.order), disc.full_cell_weights)
    ncr = local.shape[0] // rmap.cell_dofs.shape[1]
    ncc = local.shape[1] // cmap.cell_dofs.shape[1]

    def ids(dm, cell, ncomp):  # (1, ncomp nb): one cell for Coo.add_many
        return _component_ids(dm.cell_dofs[dm.cell_index[[cell]]], dm.n_scalar, ncomp)

    acc = coo.Coo((ncr * rmap.n_scalar, ncc * cmap.n_scalar))
    for cell in disc.topo.uncut_cells(rmap.side):
        acc.add_many(ids(rmap, cell, ncr), ids(cmap, cell, ncc), local)
    cut = cut_cell_rule(disc.mesh, disc.topo, disc.topo.cut_cells, rmap.side, npts=24)
    for cell, start, stop in zip(cut.cells, cut.offsets[:-1], cut.offsets[1:]):
        pts, w = cut.points[start:stop], cut.weights[start:stop]
        tr = oracle_tables(disc, rmap.order, cell, pts)
        tc = oracle_tables(disc, cmap.order, cell, pts)
        acc.add_many(ids(rmap, cell, ncr), ids(cmap, cell, ncc), kernel(tr, tc, w))
    return acc.tocsr()


def oracle_raw_jumps(disc, side, order, w_max, face_npts=4):
    """Weighted face-jump matrices, one ghost face at a time."""
    mesh, cfg = disc.mesh, disc.cfg
    dm = disc.s if side == "s" else (disc.vf if order == cfg.m_f else disc.p)
    basis = reference_basis(order)
    kappa = disc.topo.kappa(side)
    gx, gw = gauss_1d(face_npts)
    accs = [coo.Coo((dm.n_scalar, dm.n_scalar)) for _ in range(order)]
    for f in disc.topo.ghost_faces(side):
        k1, k2 = (int(c) for c in mesh.face_cells[f])
        axis = mesh.face_axis[f]
        # the lower end of the face is the lower-left corner of its second cell
        pts = np.tile(mesh.cell_origin(k2), (face_npts, 1))
        pts[:, 1 - axis] += mesh.h * gx
        wq = mesh.h * gw
        w_face = float(weight_w(kappa[k1], w_max) + weight_w(kappa[k2], w_max))
        ids = np.concatenate([dm.cell_dofs[dm.cell_index[k1]],
                              dm.cell_dofs[dm.cell_index[k2]]])[None]
        for l in range(1, order + 1):
            d = (l, 0) if axis == 0 else (0, l)
            t1, t2 = ((basis.eval((pts - mesh.cell_origin(k)) / mesh.h, *d) / mesh.h ** l)
                      for k in (k1, k2))
            J = np.hstack([t1, -t2])
            accs[l - 1].add_many(ids, ids, w_face * (J.T @ (wq[:, None] * J)))
    return [a.tocsr() for a in accs]


def oracle_nitsche(disc):
    """(penalty, consistency) Nitsche matrices, one interface arc at a time."""
    cfg, lay = disc.cfg, disc.layout
    rnu = cfg.rho_f * cfg.nu_f
    pen = rnu * cfg.gamma_N / disc.h
    acc_pen = coo.Coo((lay.n_system, lay.n_system))
    acc_cons = coo.Coo((lay.n_system, lay.n_system))

    def ids(block, cell):  # (1, ncomp nb): one cell for Coo.add_many
        dm = disc.dofmap(block)
        return _component_ids(dm.cell_dofs[dm.cell_index[[cell]]], dm.n_scalar,
                              dm.ncomp, lay.offset(block))

    c = disc.level_set.center
    for cell in disc.topo.cut_cells:
        rule = disc.iface_rules[cell]
        pts, w = rule.points, rule.weights
        nrm = -(pts - c) / np.linalg.norm(pts - c, axis=1)[:, None]
        Nf, Gfx, Gfy = oracle_tables(disc, cfg.m_f, cell, pts)
        P = oracle_tables(disc, cfg.m_f - 1, cell, pts)[0]
        Ns = oracle_tables(disc, cfg.m_s, cell, pts)[0]
        n_comp = (nrm[:, 0], nrm[:, 1])
        G = (Gfx, Gfy)
        Gn = Gfx * nrm[:, :1] + Gfy * nrm[:, 1:]
        ids_vf, ids_p = ids("vf", cell), ids("p", cell)
        tabs = [(Nf, 1.0, ids_vf), (Ns, -1.0, ids("vs", cell))]
        for Nt, st, rids in tabs:
            for Ntr, str_, cids in tabs:
                loc = pen * st * str_ * _mass(Nt, Ntr, w)
                for rc, cc in zip(np.split(rids, 2, axis=1), np.split(cids, 2, axis=1)):
                    acc_pen.add_many(rc, cc, loc)
        for Nt, st, rids in tabs:
            blocks = [[-st * rnu * (Nt.T @ (w[:, None] * G[a] * n_comp[b][:, None])
                                    + (a == b) * Nt.T @ (w[:, None] * Gn))
                       for b in range(2)] for a in range(2)]
            acc_cons.add_many(rids, ids_vf, np.block(blocks))
            acc_cons.add_many(rids, ids_p, np.vstack(
                [st * Nt.T @ (w[:, None] * P * n_comp[a][:, None]) for a in range(2)]))
        for Ntr, str_, cids in tabs:
            blocks = [[-str_ * rnu * ((G[b] * n_comp[a][:, None]).T @ (w[:, None] * Ntr)
                                      + (a == b) * Gn.T @ (w[:, None] * Ntr))
                       for b in range(2)] for a in range(2)]
            acc_cons.add_many(ids_vf, cids, np.block(blocks))
            acc_cons.add_many(ids_p, cids, np.hstack(
                [-str_ * P.T @ (w[:, None] * Ntr * n_comp[b][:, None]) for b in range(2)]))
    return acc_pen.tocsr(), acc_cons.tocsr()


def oracle_ghost_ratio(disc, side, order, l, w_max, seed, sampler="band",
                       gamma_on=True):
    """Ghost-extension ratio with the forms of the whole side, taken one
    sample at a time; band sample j is column j of one (band, samples)
    draw over the sorted cut-cell dofs."""
    block = {"f": {disc.cfg.m_f: "vf", disc.cfg.m_f - 1: "p"},
             "s": {disc.cfg.m_s: "vs"}}[side][order]
    kernel = SCALAR_KERNELS["value" if l == 0 else "gradient"]
    M_comp = coo.assemble_cells(disc, kernel, block, domain="extended")
    rhs_mat = coo.assemble_cells(disc, kernel, block, domain="uncut")
    raws = raw_jump_matrices(disc, block, w_max=w_max) if gamma_on else []
    for j, raw in enumerate(raws, start=1):
        rhs_mat = rhs_mat + (disc.h ** (2 * (j - l) + 1) / math.factorial(j - l) ** 2
                             * on_pattern(disc, block, raw))
    dm = disc.dofmap(block)
    cut_dofs = [dm.cell_dofs[dm.cell_index[int(c)]] for c in disc.topo.cut_cells]
    band = np.unique(np.concatenate(cut_dofs))
    rng = np.random.default_rng(seed)
    if sampler == "band":
        draws = rng.standard_normal((len(band), GHOST_SAMPLES))
    worst = 0.0
    for j in range(GHOST_SAMPLES):
        v = np.zeros(dm.n_scalar)
        if sampler == "band":
            v[band] = draws[:, j]
        else:
            ids = cut_dofs[rng.integers(len(cut_dofs))]
            v[ids] = rng.standard_normal(len(ids))
        lhs, rhs = float(v @ (M_comp @ v)), float(v @ (rhs_mat @ v))
        if rhs > 1e-13 * lhs:
            worst = max(worst, lhs / rhs)
    return worst


BATCH_CASES = [(n, m_s, r2) for n in (8, 16) for m_s in (1, 2) for r2 in (0.5, 0.71)]
BATCH_CASES.append((9, 2, 0.3136))


@pytest.fixture(scope="module", params=BATCH_CASES,
                ids=[f"n{n}-ms{m}-r{r}" for n, m, r in BATCH_CASES])
def batch_case(request):
    """r2 = 0.5 puts mesh vertices on the circle; 0.71 is a generic cut; at
    n = 9, r2 = 0.3136 the circle leaves four cells through one face and
    comes back through it, so those cells hold two arcs."""
    n, m_s, r2 = request.param
    disc = Discretization(SimulationConfig(n=n, m_s=m_s, radius_squared=r2))
    arrays = {}
    return disc, assemble_forms(disc, arrays), arrays


def step_only_form(disc, arrays, *names):
    """System matrix of forms that the library sums into R only."""
    return _stack({key: data for name in names for key, data in arrays[name].items()},
                  disc)


def on_pattern(disc, block, data):
    """CSR matrix of a data array on the pattern of (block, block)."""
    P = assembly.pattern(disc, block, block)
    return sp.csr_matrix((data, P.indices, P.indptr), shape=P.shape)


def assert_same(got, want, tol=1e-13):
    scale = abs(want).max()
    assert scale > 0
    assert abs(got - want).max() <= tol * scale


def test_batched_raw_jumps_match_face_loop(batch_case):
    disc, _, _ = batch_case
    for block in ("vf", "p", "vs"):
        dm = disc.dofmap(block)
        for w_max in (1.0, disc.cfg.w_max):
            got = raw_jump_matrices(disc, block, w_max=w_max)
            want = oracle_raw_jumps(disc, dm.side, dm.order, w_max)
            assert len(got) == dm.order
            for g, o in zip(got, want):
                assert_same(on_pattern(disc, block, g), o)


def test_batched_cell_forms_match_cell_loop(batch_case):
    disc, forms, arrays = batch_case
    cfg = disc.cfg
    assert_same(forms.mass_solid_scalar, oracle_cells(disc, SCALAR_KERNELS["value"], "vs"))
    assert_same(_stack(arrays["solid_bulk"], disc, ("vs",)), oracle_cells(
        disc, lambda tr, tc, w: _solid_bulk(tr, w, cfg.mu_s, cfg.lambda_s), "vs"))
    viscous = oracle_cells(disc, lambda tr, tc, w: _viscous(tr, w, cfg.rho_f * cfg.nu_f), "vf")
    # the library stacks the (p, v_f) block as grad_p's transpose: the
    # continuity form tested with -xi, which the oracle forms directly as
    # (div v, xi)
    fluid_bulk = (_place(disc, "vf", "vf", viscous)
                  + _place(disc, "vf", "p", oracle_cells(disc, _grad_p, "vf", "p"))
                  - _place(disc, "p", "vf", oracle_cells(disc, div_q, "p", "vf")))
    assert_same(step_only_form(disc, arrays, "viscous", "grad_p"), fluid_bulk)


def test_batched_nitsche_matches_arc_loop(batch_case):
    disc, forms, arrays = batch_case
    pen, cons = oracle_nitsche(disc)
    assert_same(forms.nitsche_pen, pen)
    # the library tests the pressure with -xi, so its pressure rows are the
    # oracle's negated
    sign = np.ones(disc.layout.n_system)
    sign[disc.layout.slice("p")] = -1.0
    assert_same(step_only_form(disc, arrays, "consistency"), sp.diags(sign) @ cons)


@functools.lru_cache(maxsize=None)
def band_disc(n, m_s, r2):
    return Discretization(SimulationConfig(n=n, m_s=m_s, radius_squared=r2))


# the n = 8 discretization of disc8_q2 with the jump terms, and the n = 16
# batch cases without them
BAND_CASES = [(side, l, *case) for case in [(8, 2, 0.75, True)] + [
    (n, m_s, r2, False) for n, m_s, r2 in BATCH_CASES if n == 16]
    for side in ("f", "s") for l in (0, 1)]


@pytest.mark.parametrize("side,l,n,m_s,r2,gamma_on", BAND_CASES,
                         ids=[f"{side}-{l}" + ("" if n == 8 else f"-n{n}-ms{m}-r{r}-nojumps")
                              for side, l, n, m, r, _ in BAND_CASES])
def test_band_sampler_matches_per_cell_draws(side, l, n, m_s, r2, gamma_on):
    """The band forms, restricted from the space's pattern, give the ratios
    of the whole side's forms, with and without jumps."""
    disc = band_disc(n, m_s, r2)
    order = disc.cfg.m_f if side == "f" else disc.cfg.m_s
    got = ghost_extension_ratios(disc, side, order, l, disc.cfg.w_max,
                                 gamma_on=gamma_on, seed=11)
    want = oracle_ghost_ratio(disc, side, order, l, disc.cfg.w_max, seed=11,
                              gamma_on=gamma_on)
    assert want > 0
    assert got == pytest.approx(want, rel=1e-12)


def test_cell_sampler_matches_per_sample_loop(disc8_q2):
    disc = disc8_q2
    got = ghost_extension_ratios(disc, "f", 2, 1, disc.cfg.w_max, seed=11, sampler="cell")
    want = oracle_ghost_ratio(disc, "f", 2, 1, disc.cfg.w_max, seed=11, sampler="cell")
    assert want > 0
    assert got == pytest.approx(want, rel=1e-12)


# -- the pattern pass against the COO assembly it replaced --------------------

def assert_matches_oracle(got, want, tol=1e-15):
    """Entries within tol of the oracle's, relative to its largest entry.

    The two sum the same local entries in different orders, so an entry
    that is zero in exact arithmetic may cancel to exactly zero (and not be
    stored) in one and stay at round-off in the other; the stored entries
    agree except at such entries, which the value check bounds by tol.
    """
    got, want = got.tocsr(), want.tocsr()
    scale = abs(want).max()
    assert got.shape == want.shape and scale > 0
    assert abs(got - want).max() <= tol * scale
    ones_got, ones_want = got.copy(), want.copy()
    ones_got.data[:], ones_want.data[:] = 1.0, 1.0
    assert (ones_got - ones_want).nnz <= 1e-3 * want.nnz


ORACLE_CASES = [(n, m_s, 0.75) for n in (8, 16) for m_s in (1, 2)] + [(9, 2, 0.3136)]


@pytest.mark.parametrize("n,m_s,r2", ORACLE_CASES,
                         ids=[f"n{n}-ms{m}-r{r}" for n, m, r in ORACLE_CASES])
def test_pattern_pass_matches_coo_assembly(n, m_s, r2):
    """Every field of ``Forms``, the step matrices R, M, K, the operator A
    (the oracle's k-term of R, with the pressure rows tested with -xi), the
    free block of R that the stepper keeps (in its order of the free dofs)
    and its lift of the lid values equal those of the COO assembly."""
    disc = Discretization(SimulationConfig(n=n, m_s=m_s, radius_squared=r2))
    R, M, K, forms = system_matrices(disc, disc.cfg.k)
    want = coo.assemble_forms(disc)
    for name in forms.__dataclass_fields__:
        assert_matches_oracle(getattr(forms, name), getattr(want, name))
    R_want, M_want, K_want, A_want = coo.system_matrices(disc, want)
    vs = disc.layout.slice("vs")
    sign = np.ones(disc.layout.n_system)
    sign[disc.layout.slice("p")] = -1.0
    A = _stack(operators(disc)[1], disc)
    for got, ref in ((R, R_want), (M, M_want), (K, K_want[vs, vs]),
                     (A, sp.diags(sign) @ A_want)):
        assert_matches_oracle(got, ref)
    stepper = TimeStepper(disc)
    R_free, R_dir = coo.dirichlet_reduce(R_want, stepper.dir_idx)
    rank = np.argsort(np.argsort(stepper.free))  # the stepper's order of the free dofs
    assert_matches_oracle(stepper.fact.A, R_free[rank][:, rank])
    lift = R_dir[rank] @ stepper.g_profile
    assert abs(stepper.lift - lift).max() <= 1e-14 * abs(lift).max()


def test_step_pattern_independent_of_arc_order():
    """R's stored pattern does not depend on the order of the sums: with the
    arcs of the record reversed, which reverses the sums of the arc forms,
    the stepper's R has the same indices and indptr."""
    disc = Discretization(SimulationConfig(n=16, m_s=2))
    want = TimeStepper(disc).fact.A
    rule = disc.iface_rules
    counts = np.diff(rule.offsets)[::-1]
    disc.iface_rules = CutParts(rule.cells[::-1],
                                rule.points.reshape(-1, ARC_NPTS, 2)[::-1].reshape(-1, 2),
                                rule.weights.reshape(-1, ARC_NPTS)[::-1].ravel(),
                                np.concatenate([[0], np.cumsum(counts)]))
    got = TimeStepper(disc).fact.A
    assert not np.array_equal(got.data, want.data)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert abs(got - want).max() <= 1e-15 * abs(want).max()


def test_step_pattern_independent_of_time_step():
    """A small k leaves the pressure rows of R far below its largest entry,
    yet R keeps all of them: the round-off of each form is judged against
    the form's largest entry, so R's pattern is the same at every k; each
    R = M + k A + k^2 K is summed from one ``operators`` call."""
    disc = Discretization(SimulationConfig(n=16, m_s=2))
    M, A, K, _ = operators(disc)
    want = _stack(_lin((1.0, M), (1.0, A), (1.0, K), name="step matrix"), disc)
    for k in (1e-3, 1e-9):
        got = _stack(_lin((1.0, M), (k, A), (k * k, K), name="step matrix"), disc)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


def test_operators_free_of_time_step():
    """``operators`` reads no run field: two configurations that differ only
    in k, T, peak_inflow and ramp_time give the same data arrays of M, A and
    K, key for key, and the same ``Forms``, bit for bit."""
    got, want = (operators(Discretization(SimulationConfig(n=16, m_s=2, **run)))
                 for run in (dict(k=1.0, T=8.0, peak_inflow=0.2, ramp_time=2.0),
                             dict(k=1e-4, T=1e-4, peak_inflow=0.0, ramp_time=0.5)))
    for g, w in zip(got[:3], want[:3]):
        assert g and list(g) == list(w)
        for key in w:
            assert g[key].dtype == w[key].dtype and g[key].tobytes() == w[key].tobytes(), key
    for name in Forms.__dataclass_fields__:
        g, w = getattr(got[3], name), getattr(want[3], name)
        for part in ("data", "indices", "indptr"):
            assert getattr(g, part).tobytes() == getattr(w, part).tobytes(), (name, part)


TABULATION_CASES = [(1, False), (2, False), (1, True), (2, True)]


@pytest.mark.parametrize("m_s,step", TABULATION_CASES,
                         ids=[f"{m}" + ("-arrays" if step else "")
                              for m, step in TABULATION_CASES])
def test_one_tabulation_per_batch_and_order(disc8, disc8_q2, m_s, step, monkeypatch):
    """One assemble_forms call tabulates no point of the cut parts, whose
    cells share their side's moment-fitted nodes, and the arcs, one batch
    of (arcs, ARC_NPTS) points, once per space order: the velocity orders
    m_f and m_s for the Forms-only pass, and the pressure order m_f - 1 too
    when ``arrays`` asks for the step forms."""
    disc = disc8 if m_s == 1 else disc8_q2
    calls = Counter()
    tabulate = Discretization.tabulate

    def counting(self, order, cells, pts):
        calls[order, np.asarray(cells).tobytes(), np.asarray(pts).tobytes()] += 1
        return tabulate(self, order, cells, pts)

    monkeypatch.setattr(Discretization, "tabulate", counting)
    assemble_forms(disc, {} if step else None)
    cfg = disc.cfg
    want = Counter()
    rule = disc.iface_rules
    cells = np.repeat(rule.cells, np.diff(rule.offsets) // ARC_NPTS)
    for order in {cfg.m_f, cfg.m_s} | ({cfg.m_f - 1} if step else set()):
        want[order, cells.tobytes(), rule.points.tobytes()] += 1
    assert calls == want


GATE_CASES = [(8, 2, 0.75), (16, 1, 0.6), (16, 2, 0.75), (32, 1, 0.5), (32, 2, 0.79),
              (9, 2, 0.3136), (64, 2, 0.75)]


@pytest.mark.parametrize("n,m_s,r2", GATE_CASES,
                         ids=[f"n{n}-ms{m}-r{r}" for n, m, r in GATE_CASES])
def test_forms_only_pass_matches_step_pass(n, m_s, r2):
    """Every field of ``Forms`` from assemble_forms without ``arrays`` is
    bit-identical (data, indices, indptr and their dtypes) to that of the
    full pass that operators makes."""
    disc = Discretization(SimulationConfig(n=n, m_s=m_s, radius_squared=r2))
    got, want = assemble_forms(disc), operators(disc)[3]
    for name in Forms.__dataclass_fields__:
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape, name
        for part in ("data", "indices", "indptr"):
            a, b = getattr(g, part), getattr(w, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)


# the block pairs on and above the diagonal, in SYSTEM_BLOCKS order
UPPER_PAIRS = {(row, col) for i, row in enumerate(assembly.SYSTEM_BLOCKS)
               for col in assembly.SYSTEM_BLOCKS[i:]}


def on_or_above_diagonal(row, col, cr, cc):
    """Whether the component pair (row cr, col cc) lies on or above the
    diagonal of the (v_f, p, v_s) system."""
    return (row, col) in UPPER_PAIRS and (row != col or cr <= cc)


SYMMETRY_CASES = [(8, 2, 0.75, 1.0), (16, 1, 0.6, 1.0), (16, 2, 0.75, 1 / 16), (32, 1, 0.5, 1.0),
                  (32, 2, 0.79, 1 / 16), (9, 2, 0.3136, 1.0), (64, 2, 0.75, 1 / 16),
                  (32, 2, 0.75, 1e-3), (16, 1, 0.7, 1e-4)]


@pytest.mark.parametrize("n,m_s,r2,k", SYMMETRY_CASES,
                         ids=[f"n{n}-ms{m}-r{r}-k{k:g}" for n, m, r, k in SYMMETRY_CASES])
def test_assembled_matrices_equal_their_transposes(n, m_s, r2, k):
    """Each form is summed on and above the diagonal only, and the blocks
    below it are stacked as their partners' transposes: no pattern that
    ``disc`` holds and no data array of the step pass lies below the
    diagonal, and every assembled matrix equals its transpose bit for bit
    (indices, indptr and data): the fields of ``Forms``, the step matrices
    R, M and K, the Analyzer's whole-cell matrices and the lhs and rhs of
    every ghost-extension band."""
    cfg = SimulationConfig(n=n, m_s=m_s, radius_squared=r2, k=k, T=k)
    disc = Discretization(cfg)
    R, M, K, forms = system_matrices(disc, disc.cfg.k)
    assert set(disc.patterns) <= UPPER_PAIRS
    arrays = {}
    assemble_forms(disc, arrays)
    keys = {key for data in arrays.values() for key in data}
    assert keys and all(on_or_above_diagonal(*key) for key in keys)
    analyzer = Analyzer(disc, forms)
    mats = {"R": R, "M": M, "K": K}
    mats.update((name, getattr(forms, name)) for name in Forms.__dataclass_fields__)
    mats.update((name, getattr(analyzer, name)) for name in ("mass_s_T", "grad_s_T", "grad_vf_T"))
    for side, order in (("f", cfg.m_f), ("f", cfg.m_f - 1), ("s", m_s)):
        for gamma_on in (True, False):
            band = ghost_band(disc, side, order, cfg.w_max, gamma_on)
            for l in (0, 1):
                mats[side, order, gamma_on, "lhs", l] = band.lhs[l]
                mats[side, order, gamma_on, "rhs", l] = band.rhs[l]
    for name, A in mats.items():
        T = A.T.tocsr()
        T.sort_indices()
        assert A.nnz > 0, name
        for part in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(A, part), getattr(T, part)), (name, part)


STEP_KERNELS = ("_viscous", "_grad_p", "_solid_bulk")
FORMS_PAIRS = {("vf", "vf"), ("vf", "vs"), ("vs", "vs"), ("p", "p")}


def test_forms_only_pass_skips_step_forms(monkeypatch):
    """Without ``arrays`` the pass runs no step-only kernel, sums only the
    masses and the Nitsche penalty, and builds no pattern that couples the
    pressure with a velocity; with ``arrays`` it does all of these."""
    disc = Discretization(SimulationConfig(n=8, m_s=2))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STEP_KERNELS:
        monkeypatch.setattr(assembly, name, counted(name, getattr(assembly, name)))
    add = assembly._Sums.add

    def sums_add(self, form, *args):
        calls["form", form] += 1
        add(self, form, *args)

    monkeypatch.setattr(assembly._Sums, "add", sums_add)

    assemble_forms(disc)
    assert not any(calls[name] for name in STEP_KERNELS)
    assert set(disc.patterns) == FORMS_PAIRS
    assert {key[1] for key in calls if key[0] == "form"} == {
        "mass_fluid", "mass_solid_scalar", "nitsche_pen"}
    calls.clear()
    assemble_forms(disc, {})
    assert all(calls[name] for name in STEP_KERNELS)
    assert set(disc.patterns) == UPPER_PAIRS
    assert {key[1] for key in calls if key[0] == "form"} == {
        "mass_fluid", "mass_solid_scalar", "nitsche_pen", "viscous", "grad_p", "solid_bulk",
        "consistency"}


@pytest.mark.parametrize("m_s", [1, 2])
def test_each_pattern_built_once_per_discretization(m_s, monkeypatch):
    """A discretization taken through the step system, the energies and the
    ghost-extension bands of v_f, p and v_s builds the pattern of each
    block pair on or above the diagonal once, and none below it, and every
    reader gets the one it holds."""
    built = Counter()
    init = assembly.Pattern.__init__

    def counting(self, disc, row, col):
        built[row, col] += 1
        init(self, disc, row, col)

    monkeypatch.setattr(assembly.Pattern, "__init__", counting)
    disc = Discretization(SimulationConfig(n=8, m_s=m_s))
    stepper = TimeStepper(disc)
    Analyzer(disc, stepper.forms)
    cfg = disc.cfg
    for side, order in (("f", cfg.m_f), ("f", cfg.m_f - 1), ("s", m_s)):
        for l in (0, 1):
            ghost_extension_ratios(disc, side, order, l, cfg.w_max)
    assert built == Counter(dict.fromkeys(UPPER_PAIRS, 1))
    assert all(assembly.pattern(disc, *pair) is disc.patterns[pair] for pair in UPPER_PAIRS)


def test_pattern_index_arrays_shared_read_only(disc8):
    """The index arrays of a pattern, which every reader of the
    discretization shares, are int32, and writing to its indices or indptr
    raises and leaves the held pattern unchanged."""
    P = assembly.pattern(disc8, "vf", "vf")
    assert all(a.dtype == np.int32
               for a in (P.indices, P.indptr, P.cell_pos, *P.face_pos, P._slot))
    indices, indptr = P.indices.copy(), P.indptr.copy()
    for a in (P.indices, P.indptr):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1
    assert np.array_equal(P.indices, indices) and np.array_equal(P.indptr, indptr)


"""Time stepping: inflow data, Dirichlet handling, constraint identity."""

import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import assembly_oracle as coo
import cutfsi.analysis
import cutfsi.assembly
import cutfsi.discretization
import cutfsi.stepper
from cutfsi import (ConfigError, Discretization, SimulationConfig, TimeStepper,
                    ghost_extension_ratios, linalg)
from cutfsi.stepper import inflow_profile_x, ramp_factor


def test_inflow_profile_shape():
    cfg = SimulationConfig()
    assert inflow_profile_x(0.0, cfg) == pytest.approx(0.2)
    assert inflow_profile_x(0.7, cfg) == pytest.approx(0.2)
    assert inflow_profile_x(-0.7, cfg) == pytest.approx(0.2)
    assert inflow_profile_x(1.0, cfg) == pytest.approx(0.0, abs=1e-15)
    assert inflow_profile_x(-1.0, cfg) == pytest.approx(0.0, abs=1e-15)
    # sin^2 flank midpoint
    assert inflow_profile_x(0.85, cfg) == pytest.approx(0.1)


def test_ramp():
    cfg = SimulationConfig()
    assert ramp_factor(0.0, cfg) == 0.0
    assert ramp_factor(1.0, cfg) == pytest.approx(0.5)
    assert ramp_factor(2.0, cfg) == 1.0
    assert ramp_factor(5.0, cfg) == 1.0


def test_inflow_zero_off_lid(run8, disc8):
    """Boundary values after the ramp: the lid moves in x, all other
    Dirichlet nodes and the y-component are at rest."""
    stepper, _ = run8
    coords = disc8.vf.node_coords[disc8.vf.dirichlet_nodes]
    gx, gy = np.split(ramp_factor(3.0, disc8.cfg) * stepper.g_profile, 2)
    on_lid = np.abs(coords[:, 1] - 1.0) < 1e-12
    assert np.all(gy == 0.0)
    assert np.all(gx[~on_lid] == 0.0)
    mid = on_lid & (np.abs(coords[:, 0]) < 1e-12)
    assert mid.sum() == 1 and gx[mid][0] == pytest.approx(0.2)


@pytest.fixture(scope="module")
def run8(disc8):
    stepper = TimeStepper(disc8)
    s0 = stepper.initialize()
    return stepper, [s0, *stepper.run(s0, stepper.cfg.n_steps)]


@pytest.mark.parametrize("m_s", [1, 2])
def test_run_yields_the_step_chain(m_s):
    """``run`` yields the ``n_steps`` states after its start, with indices
    1 ... n_steps, each equal bit for bit to the state of an explicit chain
    of ``step`` calls on the same stepper."""
    stepper = TimeStepper(Discretization(SimulationConfig(n=8, m_s=m_s)))
    n_steps = 3  # fewer than the configuration's 8: run takes its count, not T / k
    chain = [stepper.initialize()]
    for _ in range(n_steps):
        chain.append(stepper.step(chain[-1]))
    states = list(stepper.run(stepper.initialize(), n_steps))
    assert [s.index for s in states] == [1, 2, 3]
    for s, c in zip(states, chain[1:]):
        assert (s.index, s.t, s.solve_residual, s.constraint_residual) \
            == (c.index, c.t, c.solve_residual, c.constraint_residual)
        assert s.x.tobytes() == c.x.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_step_raises(run8):
    """A step whose solve is not finite raises, naming the step, rather
    than returning a NaN state: its backward error is NaN, which fails the
    accuracy test."""
    stepper, _ = run8
    state = stepper.initialize()
    state.x[:] = np.inf
    with pytest.raises(linalg.SingularMatrixError,
                       match="^step 1: backward error nan exceeds 1e-10 after one refinement$"):
        stepper.step(state)


def test_zero_initial_state(run8):
    _, states = run8
    assert states[0].t == 0.0
    assert np.all(states[0].x == 0.0)


def test_solve_residuals(run8):
    _, states = run8
    for s in states[1:]:
        assert s.solve_residual <= 1e-10


def test_constraint_identity(run8, disc8):
    _, states = run8
    k = disc8.cfg.k
    lay = disc8.layout
    for a, b in zip(states[:-1], states[1:]):
        du = b.x[lay.slice("u")] - a.x[lay.slice("u")]
        assert np.max(np.abs(du - k * b.x[lay.slice("vs")])) <= 1e-9
    for s in states[1:]:
        assert s.constraint_residual <= 1e-9


def test_dirichlet_values_attained(run8, disc8):
    stepper, states = run8
    final = states[-1]
    g = ramp_factor(final.t, disc8.cfg) * stepper.g_profile
    assert np.allclose(final.x[stepper.dir_idx], g, atol=1e-12)


def test_zero_inflow_fixed_point(disc8):
    """With zero lid speed the boundary data and their lift are zero, and
    the zero state is a fixed point."""
    stepper = TimeStepper(disc8, disc8.cfg.replace(peak_inflow=0.0))
    assert np.all(stepper.g_profile == 0.0) and np.all(stepper.lift == 0.0)
    state = stepper.initialize()
    nxt = stepper.step(state)
    assert np.max(np.abs(nxt.x)) < 1e-12


def test_boundary_data_read_only(run8):
    """The lid values and their lift are set from the configuration once:
    writing to either raises and leaves it unchanged."""
    stepper, _ = run8
    for name in ("g_profile", "lift"):
        a = getattr(stepper, name)
        before = a.copy()
        assert not a.flags.writeable and np.any(a != 0.0), name
        with pytest.raises(ValueError):
            a[:] = 0.0
        assert np.array_equal(a, before), name


@pytest.mark.parametrize("field,value", [("n", 16), ("m_s", 2), ("gamma_N", 50.0),
                                         ("radius_squared", 0.5), ("rho_s", 2.0)])
def test_stepper_refuses_other_fields(disc8, field, value, monkeypatch):
    """A configuration that differs from the discretization's in a field
    other than the run's is refused, naming the field, before any assembly."""
    monkeypatch.setattr(cutfsi.stepper, "system_matrices",
                        lambda *a: pytest.fail("assembled a step matrix"))
    with pytest.raises(ConfigError, match=f"differs in {field}$"):
        TimeStepper(disc8, disc8.cfg.replace(**{field: value}))


def test_stepper_takes_its_run_from_cfg(disc8):
    """A configuration that differs from the discretization's only in the
    run fields gives the stepper of a discretization of its own: R, the
    lift, the LU's fill and a step bit for bit."""
    cfg = disc8.cfg.replace(k=0.25, T=2.0, peak_inflow=0.5, ramp_time=1.0)
    got, want = TimeStepper(disc8, cfg), TimeStepper(Discretization(cfg))
    assert got.cfg is cfg
    for part in ("indices", "indptr", "data"):
        assert np.array_equal(getattr(got.fact.A, part), getattr(want.fact.A, part)), part
    assert got.lift.tobytes() == want.lift.tobytes()
    assert got.fact.lu_nnz == want.fact.lu_nnz
    x_got, x_want = (s.step(s.initialize()).x for s in (got, want))
    assert x_got.tobytes() == x_want.tobytes()


def four_block_system(disc, forms):
    """Dense (A, B) of the monolithic step A x^n = B x^{n-1} on (v_f, p, v_s, u).

    A = M + k (A_h + S_h) + rows (u - k v_s, psi), B = M + rows (u, psi),
    built from the forms of the COO oracle without the displacement
    elimination.
    """
    cfg, lay, k = disc.cfg, disc.layout, disc.cfg.k
    vf, p, vs, u = (lay.slice(b) for b in ("vf", "p", "vs", "u"))
    n = lay.n_system

    def vec(G):
        return np.kron(np.eye(2), G.toarray())

    M = np.zeros((lay.total, lay.total))
    M[:n, :n] = (forms.mass_fluid + forms.mass_solid).toarray()
    M[vs, vs] += cfg.rho_s * vec(forms.ghost_vs)
    AS = np.zeros_like(M)
    AS[:n, :n] = (forms.fluid_bulk + forms.nitsche_pen + forms.nitsche_cons).toarray()
    AS[vf, vf] += 2.0 * (cfg.rho_f * cfg.nu_f) * vec(forms.ghost_vf)
    AS[p, p] += forms.ghost_p.toarray()
    AS[vs, u] = forms.solid_bulk.toarray() + 2.0 * cfg.mu_s * vec(forms.ghost_u)
    C = np.zeros_like(M)
    C[u, u] = vec(forms.mass_solid_scalar)
    B = M + C
    C[u, vs] = -k * vec(forms.mass_solid_scalar)
    return M + k * AS + C, B


def test_reduced_solve_matches_full():
    """Steps of the (v_f, p, v_s) solve with the update u = u_old + k v_s
    satisfy the four-block monolithic system with Dirichlet rows replaced."""
    for m_s in (1, 2):
        disc = Discretization(SimulationConfig(n=8, m_s=m_s))
        stepper = TimeStepper(disc)
        A, B = four_block_system(disc, coo.assemble_forms(disc))
        dir_idx = stepper.dir_idx
        A[dir_idx, :] = 0.0
        A[dir_idx, dir_idx] = 1.0
        state = stepper.initialize()
        for _ in range(3):
            new = stepper.step(state)
            b = B @ state.x
            b[dir_idx] = ramp_factor(new.t, disc.cfg) * stepper.g_profile
            res = np.linalg.norm(A @ new.x - b) / np.linalg.norm(b)
            assert res <= 1e-12, (m_s, new.index, res)
            state = new


@pytest.mark.parametrize("m_s", [1, 2])
@pytest.mark.parametrize("k", [1.0, 1.0 / 16.0])
def test_step_matrix_symmetric(m_s, k):
    """With the continuity form tested with -xi, the free block of the step
    matrix equals its transpose bit for bit.  Each coupling is assembled
    once, so every off-diagonal block pair of the full step matrix, and the
    (v_f, v_s) pair of the Nitsche penalty, are transposes bit for bit."""
    disc = Discretization(SimulationConfig(n=8, m_s=m_s, k=k))
    stepper = TimeStepper(disc)
    R = stepper.fact.A
    assert abs(R - R.T).max() == 0

    R, _, _, forms = cutfsi.stepper.system_matrices(disc, k)
    vf, p, vs = (disc.layout.slice(b) for b in ("vf", "p", "vs"))
    for A, pairs in ((R, [(vf, p), (vf, vs), (p, vs)]), (forms.nitsche_pen, [(vf, vs)])):
        for rows, cols in pairs:
            upper, lower = A[rows, cols].tocsr(), A[cols, rows].T.tocsr()
            assert upper.nnz > 0
            for part in ("indices", "indptr", "data"):
                assert np.array_equal(getattr(upper, part), getattr(lower, part)), part


def test_step_matrix_has_no_unit_rows():
    """The factorized matrix is the free block of R alone: one row per free
    dof, symmetric, with the operator's 1-norm (2.9e-2 at n = 16, m_s = 2,
    k = 1/16) rather than the 1.0 that unit Dirichlet rows would set."""
    disc = Discretization(SimulationConfig(n=16, m_s=2, k=1.0 / 16.0))
    stepper = TimeStepper(disc)
    R = stepper.fact.A
    assert R.shape[0] == disc.layout.n_system - len(stepper.dir_idx)
    assert abs(R - R.T).max() == 0
    assert spla.onenormest(R) < 0.1


def test_free_block_read_through_transpose():
    """The stepper reads its free block as rows of R[free]^T, which R's
    symmetry allows: on a lid-on case it equals R[free][:, free], sorted,
    bit for bit, and ``lift`` equals R[free][:, dir] g bit for bit."""
    disc = Discretization(SimulationConfig(n=16, m_s=2, k=1.0 / 16.0))
    stepper = TimeStepper(disc)
    R = cutfsi.stepper.system_matrices(disc, disc.cfg.k)[0][stepper.free]
    want = R[:, stepper.free]
    want.sort_indices()
    for part in ("indices", "indptr", "data"):
        got, ref = getattr(stepper.fact.A, part), getattr(want, part)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), part
    lift = R[:, stepper.dir_idx] @ stepper.g_profile
    assert np.any(lift != 0.0) and np.array_equal(stepper.lift, lift)


def test_system_matrices_frees_A_before_stacking_R(disc8, monkeypatch):
    """``system_matrices`` sums R from the operators' data arrays and drops
    A before it stacks anything: no data array of A is alive when
    ``_stack`` builds R, M or K, so stacking R does not hold A too."""
    real_operators, real_stack = cutfsi.stepper.operators, cutfsi.stepper._stack
    refs, alive = [], []

    def operators(disc):
        M, A, K, forms = real_operators(disc)
        refs.extend(weakref.ref(data) for data in A.values())
        return M, A, K, forms

    def stack(arrays, disc, *blocks):
        alive.append(sum(ref() is not None for ref in refs))
        return real_stack(arrays, disc, *blocks)

    monkeypatch.setattr(cutfsi.stepper, "operators", operators)
    monkeypatch.setattr(cutfsi.stepper, "_stack", stack)
    cutfsi.stepper.system_matrices(disc8, disc8.cfg.k)
    assert refs and alive == [0, 0, 0]


def test_step_refines_inaccurate_solve(disc8, perturbed_factor):
    """A factor of R with its diagonal perturbed by 1e-6 (relative) leaves a
    first solve of backward error 1.6e-9, above linalg.PROBE_TOL; the one
    refinement step against the stored R brings it to 1.6e-14 with one
    extra SuperLU solve."""
    stepper = TimeStepper(disc8)
    stepper.fact = perturbed_factor(stepper.fact.A, 1e-6)
    state = stepper.step(stepper.initialize())
    assert len(stepper.fact._lu.trans) == 2
    assert state.solve_residual <= 1e-10


def test_step_refuses_unrepairable_solve(disc8, perturbed_factor):
    """A factor of R with its diagonal perturbed by 1e-3 (relative) leaves
    the first step's backward error at 1.7e-6, and one refinement at
    1.4e-8, above linalg.PROBE_TOL: the step raises, naming the step and
    the backward error, rather than returning a state."""
    stepper = TimeStepper(disc8)
    stepper.fact = perturbed_factor(stepper.fact.A, 1e-3)
    with pytest.raises(linalg.SingularMatrixError,
                       match=r"^step 1: backward error \d\.\d\de-0[89] exceeds 1e-10 "
                             r"after one refinement$"):
        stepper.step(stepper.initialize())


@pytest.mark.parametrize("k, T", [(1.0, 8.0), (0.0625, 2.0)], ids=["k1-T8", "k0.0625-T2"])
def test_step_residual_relative_to_free_rhs(k, T):
    """Over the 8 steps of k = 1 and the 32 of k = 1/16 (T = 2) at n = 32,
    m_s = 2, the step residual relative to the free right-hand side b_f
    alone (not to its hypot with the lid values, as ``solve_residual`` is)
    stays at round-off: at most 1e-14; so does each ``solve_residual``,
    the step log's column (at most 2.7e-19 at k = 1/16)."""
    disc = Discretization(SimulationConfig(n=32, m_s=2, k=k, T=T))
    stepper = TimeStepper(disc)
    layout, cfg = disc.layout, disc.cfg
    s0 = stepper.initialize()
    states = [s0, *stepper.run(s0, cfg.n_steps)]
    worst = 0.0
    for old, new in zip(states, states[1:]):
        b = stepper.M @ old.x[:layout.n_system]
        b[layout.slice("vs")] -= cfg.k * (stepper.K @ old.x[layout.slice("u")])
        b_f = b[stepper.free] - ramp_factor(new.t, cfg) * stepper.lift
        r = b_f - stepper.fact.A @ new.x[stepper.free]
        worst = max(worst, np.linalg.norm(r) / np.linalg.norm(b_f))
        assert new.solve_residual <= 1e-14, (new.index, new.solve_residual)
    assert len(states) == round(T / k) + 1
    assert worst <= 1e-14


@pytest.mark.parametrize("m_s", [1, 2])
def test_nested_dissection_top_separator(m_s):
    """The stepper orders the free dofs by nested dissection: at n = 16 the
    order is a permutation of the free dofs, and it ends with the top-level
    separator, the dofs on the line x = 0 plus dofs of the cells left of it.
    With the separator removed, the dofs left of the line come before those
    right of it, and R couples no dof on one side with one on the other,
    although ghost faces of both sides lie on the line.  The symmetric-mode
    factor of R in this order stores at most 5 % more entries than today."""
    disc = Discretization(SimulationConfig(n=16, m_s=m_s))
    stepper = TimeStepper(disc)
    free = stepper.free
    assert np.array_equal(np.sort(free), np.setdiff1d(np.arange(disc.layout.n_system),
                                                      stepper.dir_idx))
    x = np.concatenate([np.tile(disc.dofmap(b).node_coords[:, 0], disc.dofmap(b).ncomp)
                        for b in ("vf", "p", "vs")])[free]
    tol = 1e-12
    near = (x > -disc.h - tol) & (x < tol)
    n_rest = np.flatnonzero(~near)[-1] + 1  # the separator is the trailing run of near
    rest = x[:n_rest]
    assert not np.any(np.abs(rest) < tol) and np.any(x[n_rest:] < -tol)
    left, right = np.flatnonzero(rest < 0), np.flatnonzero(rest > 0)
    assert left.max() < right.min()
    assert stepper.fact.A[left][:, right].nnz == 0
    mesh = disc.mesh
    for side in ("f", "s"):
        faces = disc.topo.ghost_faces(side)
        k1 = mesh.face_cells[faces[mesh.face_axis[faces] == 0], 0]
        assert np.any(k1 % mesh.n == mesh.n // 2 - 1)
    # the factor keeps the order's fill: without the ghost-face separators
    # it stores 393 288 (m_s = 1) and 871 962 (m_s = 2) entries
    assert stepper.fact.lu_nnz <= 1.05 * {1: 262_524, 2: 574_620}[m_s]


def test_nested_dissection_follows_the_graph(disc16):
    """The order reads its separators from the matrix it orders: one added
    symmetric entry coupling a free dof with x < -h, which lies in no cell
    next to the line x = 0, to a free dof with x > 0 puts that dof into the
    trailing top-level separator, and with the separator removed the
    modified matrix couples no dof left of the line with one right of it."""
    disc = disc16
    stepper = TimeStepper(disc)
    dofs = np.sort(stepper.free)
    x = np.concatenate([np.tile(disc.dofmap(b).node_coords[:, 0], disc.dofmap(b).ncomp)
                        for b in ("vf", "p", "vs")])
    tol = 1e-12
    far = dofs[x[dofs] < -disc.h - tol][0]
    east = dofs[x[dofs] > tol][0]
    R = cutfsi.stepper.system_matrices(disc, disc.cfg.k)[0]
    R = (R + sp.csr_matrix(([1.0, 1.0], ([far, east], [east, far])), shape=R.shape)).tocsr()
    order = cutfsi.stepper.nested_dissection(disc, R, dofs)
    assert np.array_equal(np.sort(order), dofs)

    def top_split(ids):
        """(left, right, separator) of an order: the separator is what
        follows the last dof right of the line."""
        n_rest = np.flatnonzero(x[ids] > tol)[-1] + 1
        rest = ids[:n_rest]
        return rest[x[rest] < 0], rest[x[rest] > 0], ids[n_rest:]

    assert far not in top_split(stepper.free)[2]
    left, right, sep = top_split(order)
    assert far in sep and np.all(x[sep] < tol)
    assert R[left][:, right].nnz == 0


def test_profiled_call_sites(disc8, monkeypatch):
    """perfbench/ wraps these module names: a discretization calls the
    geometry, quadrature and dof-map builders through
    cutfsi.discretization; building a stepper calls stepper.system_matrices
    and stepper.linalg.factorize once each; the step matrices come from one
    assembly.assemble_forms pass, which calls assembly.raw_jump_matrices;
    and the ghost-extension probe calls analysis.raw_jump_matrices."""
    calls = Counter()
    results = {}

    def count(owner, name):
        real = getattr(owner, name)
        key = f"{owner.__name__.split('.')[-1]}.{name}"

        def wrapper(*args, **kwargs):
            calls[key] += 1
            results[key] = real(*args, **kwargs)
            return results[key]
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("build_cut_topology", "cut_cell_rule", "interface_rule", "build_dof_map"):
        count(cutfsi.discretization, name)
    count(cutfsi.stepper, "system_matrices")
    count(cutfsi.stepper.linalg, "factorize")
    count(cutfsi.assembly, "assemble_forms")
    count(cutfsi.assembly, "raw_jump_matrices")
    count(cutfsi.analysis, "raw_jump_matrices")
    disc = Discretization(disc8.cfg)
    assert calls["discretization.build_cut_topology"] == 1
    assert calls["discretization.cut_cell_rule"] == 2
    assert calls["discretization.interface_rule"] == 1
    assert calls["discretization.build_dof_map"] == 3
    TimeStepper(disc)
    assert calls["stepper.system_matrices"] == 1 and calls["linalg.factorize"] == 1
    assert calls["assembly.assemble_forms"] == 1
    assert calls["assembly.raw_jump_matrices"] == 3  # v_f, p and the solid space
    assert sp.issparse(results["stepper.system_matrices"][0])
    assert hasattr(results["linalg.factorize"], "_lu")
    ghost_extension_ratios(disc, "f", 2, 1, w_max=1.0, gamma_on=True)
    assert calls["analysis.raw_jump_matrices"] == 1

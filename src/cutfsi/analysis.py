"""Error norms, convergence orders, energy functionals and stability checks.

Space-time norms accumulate per-step squared norms weighted by k.  Errors
against a reference run are evaluated at the coarse mesh's cut quadrature
points (nested meshes make reference cell lookup exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (SCALAR_KERNELS, Forms, Pattern, assemble_cells, ghost_data,
                       raw_jump_matrices)
from .config import ConfigError
from .discretization import Discretization
from .fem import reference_basis
from .stepper import State, StepRecord, TimeStepper

ERROR_NORMS = ("vf_T", "vs_T", "grad_u_T", "grad_vf_I", "h_grad_p_I")
# Random samples per ghost-extension ratio.
GHOST_SAMPLES = 100


def convergence_order(e_coarse: float, e_fine: float) -> float:
    """alpha = log2(e_h / e_{h/2})."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("convergence order requires positive errors")
    return float(np.log2(e_coarse / e_fine))


# -- pointwise field evaluation ---------------------------------------------

def locate_cells(disc: Discretization, pts: np.ndarray) -> np.ndarray:
    """Cell ids containing the points (uniform grid lookup)."""
    idx = np.clip(((pts + 1.0) / disc.h).astype(int), 0, disc.mesh.n - 1)
    return idx[:, 1] * disc.mesh.n + idx[:, 0]


def point_eval_matrix(disc: Discretization, block: str, pts: np.ndarray,
                      cells: np.ndarray, dx: int = 0, dy: int = 0) -> sp.csr_matrix:
    """Sparse (npts, n_scalar) map from one component's scalar coefficients
    to its value (or derivative d^dx_x d^dy_y) at points with known cells."""
    dm = disc.dofmap(block)
    rows = dm.cell_index[cells]
    if np.any(rows < 0):
        bad = np.flatnonzero(rows < 0)
        raise ValueError(f"{len(bad)} points fall outside the subtriangulation "
                         f"of block {block}")
    basis = reference_basis(dm.order)
    ref = (pts - disc.mesh.cell_origin(cells)) / disc.h
    table = basis.eval(ref, dx=dx, dy=dy) / disc.h ** (dx + dy)
    npts, nb = table.shape
    return sp.csr_matrix((table.ravel(), dm.cell_dofs[rows].ravel(),
                          np.arange(0, npts * nb + 1, nb)),
                         shape=(npts, dm.n_scalar))


def evaluate_scalar(disc: Discretization, block: str, coefs: np.ndarray,
                    pts: np.ndarray, cells: np.ndarray, comp: int = 0,
                    dx: int = 0, dy: int = 0) -> np.ndarray:
    """Evaluate one component of a field at points with known cells."""
    ns = disc.dofmap(block).n_scalar
    E = point_eval_matrix(disc, block, pts, cells, dx, dy)
    return E @ coefs[comp * ns:(comp + 1) * ns]


# -- quadrature point sets over the physical subdomains ---------------------

def domain_points(disc: Discretization, side: str):
    """(points, weights, cells) covering Omega_i with the cut quadrature."""
    full, cut = disc.topo.uncut_cells(side), disc.cut_parts[side]
    pts = disc.mesh.cell_origin(full)[:, None, :] + disc.h * disc.ref_pts
    return (np.vstack([pts.reshape(-1, 2), cut.points]),
            np.concatenate([np.tile(disc.full_cell_weights, len(full)), cut.weights]),
            np.concatenate([np.repeat(full, len(disc.ref_pts)),
                            np.repeat(cut.cells, np.diff(cut.offsets))]))


# -- energies ----------------------------------------------------------------

class Analyzer:
    """Energy functionals of one discretization.

    The physical-domain terms read the assembled ``Forms``; the terms over
    the extended subtriangulations Omega_i^T read three whole-cell scalar
    matrices, built once here: the mass of the solid space and the
    gradient matrices of the solid and fluid velocity spaces.
    """

    def __init__(self, disc: Discretization, forms: Forms):
        self.disc = disc
        self.forms = forms
        value, gradient = SCALAR_KERNELS["value"], SCALAR_KERNELS["gradient"]
        self.mass_s_T = assemble_cells(disc, value, "vs", disc.s.cells)
        self.grad_s_T = assemble_cells(disc, gradient, "vs", disc.s.cells)
        self.grad_vf_T = assemble_cells(disc, gradient, "vf", disc.vf.cells)

    @staticmethod
    def quad_form(M, x: np.ndarray, ncomp: int = 1) -> float:
        """sum_c x_c^T M x_c over the ncomp components of a component-major
        vector.  One mat-vec per component: scipy's product with an
        (n, ncomp) block is slower than ncomp mat-vecs."""
        return float(sum(v @ (M @ v) for v in x.reshape(ncomp, -1)))

    def energy(self, state: State) -> dict:
        """Seminorm snapshot: kinetic/elastic energy, ghost energy, triple norm."""
        disc = self.disc
        cfg = disc.cfg
        x = state.x
        lay = disc.layout
        vf = x[lay.slice("vf")]
        p = x[lay.slice("p")]
        vs = x[lay.slice("vs")]
        u = x[lay.slice("u")]
        E_T2 = (0.5 * self.quad_form(self.forms.mass_fluid, x[:lay.n_system])
                + 0.5 * cfg.rho_s * self.quad_form(self.mass_s_T, vs, 2)
                + cfg.mu_s * self.quad_form(self.grad_s_T, u, 2))
        g_vs = self.quad_form(self.forms.ghost_vs, vs, 2)
        g_u = self.quad_form(self.forms.ghost_u, u, 2)
        g_p = self.quad_form(self.forms.ghost_p, p)
        E_g2 = 0.5 * cfg.rho_s * g_vs + cfg.mu_s * g_u
        # h^-1 |v_f - v_s|^2_Gamma; nitsche_pen is rho_f nu_f gamma_N times it
        trace2 = (self.quad_form(self.forms.nitsche_pen, x[:lay.n_system])
                  / (cfg.rho_f * cfg.nu_f * cfg.gamma_N))
        triple2 = (cfg.rho_f * cfg.nu_f * self.quad_form(self.grad_vf_T, vf, 2)
                   + cfg.rho_f * cfg.nu_f * cfg.gamma_N * trace2 + g_p)
        return {"E_T2": E_T2, "E_g2": E_g2, "triple2": triple2,
                "trace2": trace2, "g_vs": g_vs, "g_u": g_u, "g_p": g_p}

    def lyapunov(self, state: State) -> float:
        """Discrete energy Q^n that decays step-to-step for homogeneous data."""
        disc = self.disc
        cfg = disc.cfg
        x = state.x
        lay = disc.layout
        vs = x[lay.slice("vs")]
        u = x[lay.slice("u")]
        g_vs = self.quad_form(self.forms.ghost_vs, vs, 2)
        g_u = self.quad_form(self.forms.ghost_u, u, 2)
        return (0.5 * self.quad_form(self.forms.mass_fluid, x[:lay.n_system])
                + 0.5 * cfg.rho_s * self.quad_form(self.forms.mass_solid_scalar, vs, 2)
                + 0.5 * cfg.rho_s * g_vs
                + 0.5 * self.quad_form(self.forms.solid_bulk, u)  # mu |eps|^2 + lam/2 div^2
                + cfg.mu_s * g_u)


# -- errors against a nested reference run ----------------------------------

def _check_nested(n_c: int, n_r: int) -> None:
    if n_r % n_c != 0:
        raise ConfigError(f"reference mesh n={n_r} is not a nested refinement of n={n_c}")


def error_vs_reference(disc_c: Discretization, states_c: list[State],
                       disc_r: Discretization, states_r: list[State]) -> dict:
    """Five error norms of (reference - coarse), Tables layout.

    Trajectories must share t=0..T; the reference may use a finer time grid
    (restricted to the coarse indices).
    """
    _check_nested(disc_c.mesh.n, disc_r.mesh.n)
    N_c = len(states_c) - 1
    N_r = len(states_r) - 1
    if N_r % N_c != 0:
        raise ValueError("time grids are not nested")
    stride = N_r // N_c
    ref_states = [states_r[i * stride] for i in range(N_c + 1)]

    points = {side: domain_points(disc_c, side) for side in ("f", "s")}
    block_side = {"vf": "f", "p": "f", "vs": "s", "u": "s"}
    k = disc_c.cfg.k
    levels = {"c": disc_c, "r": disc_r}
    evals: dict = {}  # point-evaluation matrices, one per (level, block, dx, dy)

    def values(level, block, state, comp, dx, dy):
        disc = levels[level]
        key = (level, block, dx, dy)
        if key not in evals:
            pts, _, cells = points[block_side[block]]
            if level == "r":
                cells = locate_cells(disc, pts)
            evals[key] = point_eval_matrix(disc, block, pts, cells, dx, dy)
        ns = disc.dofmap(block).n_scalar
        coefs = state.x[disc.layout.slice(block)]
        return evals[key] @ coefs[comp * ns:(comp + 1) * ns]

    def diff(block, state_c, state_r, comp, dx=0, dy=0):
        return (values("r", block, state_r, comp, dx, dy)
                - values("c", block, state_c, comp, dx, dy))

    w_f, w_s = points["f"][1], points["s"][1]
    sc, sr = states_c[-1], ref_states[-1]
    vf_T2 = sum(w_f @ diff("vf", sc, sr, c) ** 2 for c in range(2))
    vs_T2 = sum(w_s @ diff("vs", sc, sr, c) ** 2 for c in range(2))
    gu_T2 = sum(w_s @ diff("u", sc, sr, c, dx, dy) ** 2
                for c in range(2) for dx, dy in ((1, 0), (0, 1)))

    gvf_I2 = 0.0
    gp_I2 = 0.0
    for n in range(1, N_c + 1):
        a, b = states_c[n], ref_states[n]
        gvf_I2 += k * sum(
            w_f @ diff("vf", a, b, c, dx, dy) ** 2
            for c in range(2) for dx, dy in ((1, 0), (0, 1)))
        gp_I2 += k * sum(
            w_f @ diff("p", a, b, 0, dx, dy) ** 2
            for dx, dy in ((1, 0), (0, 1)))

    return {"vf_T": float(np.sqrt(vf_T2)),
            "vs_T": float(np.sqrt(vs_T2)),
            "grad_u_T": float(np.sqrt(gu_T2)),
            "grad_vf_I": float(np.sqrt(gvf_I2)),
            "h_grad_p_I": float(disc_c.h * np.sqrt(gp_I2))}


@dataclass
class ErrorReport:
    """Per-level errors plus orders between consecutive levels."""

    mode: str                 # "space" or "time"
    levels: list[float]       # h or k per level
    errors: list[dict]        # one dict per level, keys ERROR_NORMS

    def orders(self) -> list[dict]:
        out = []
        for coarse, fine in zip(self.errors[:-1], self.errors[1:]):
            out.append({key: convergence_order(coarse[key], fine[key])
                        for key in ERROR_NORMS})
        return out


def run_simulation(cfg):
    """Build a discretization, run to T; returns (disc, records, every state)."""
    disc = Discretization(cfg)
    stepper = TimeStepper(disc)
    states = [stepper.initialize()]
    for _ in range(cfg.n_steps):
        states.append(stepper.step(states[-1]))
    return disc, [StepRecord.of(s) for s in states[1:]], states


def spatial_study(base_cfg, n_levels: list[int], n_ref: int) -> ErrorReport:
    """Errors of a sequence of mesh levels against one fine reference run."""
    cfg_r, cfgs = base_cfg.replace(n=n_ref), [base_cfg.replace(n=n) for n in n_levels]
    for n in n_levels:
        _check_nested(n, n_ref)
        if n == n_ref:
            raise ConfigError(f"reference mesh n={n_ref} is not finer than n={n}")
    disc_r, _, states_r = run_simulation(cfg_r)
    levels, errors = [], []
    for cfg in cfgs:
        disc_c, _, states_c = run_simulation(cfg)
        levels.append(disc_c.h)
        errors.append(error_vs_reference(disc_c, states_c, disc_r, states_r))
    return ErrorReport(mode="space", levels=levels, errors=errors)


def temporal_study(base_cfg, k_levels: list[float], k_ref: float) -> ErrorReport:
    """Errors of a sequence of step sizes against a fine-step reference run."""
    cfg_r, cfgs = base_cfg.replace(k=k_ref), [base_cfg.replace(k=k) for k in k_levels]
    for cfg in cfgs:
        if cfg_r.n_steps % cfg.n_steps != 0:
            raise ConfigError(f"reference step k={k_ref:g} does not divide k={cfg.k:g}")
        if cfg_r.n_steps == cfg.n_steps:
            raise ConfigError(f"reference step k={k_ref:g} is not finer than k={cfg.k:g}")
    disc_r, _, states_r = run_simulation(cfg_r)
    levels, errors = [], []
    for cfg in cfgs:
        disc_c, _, states_c = run_simulation(cfg)
        levels.append(cfg.k)
        errors.append(error_vs_reference(disc_c, states_c, disc_r, states_r))
    return ErrorReport(mode="time", levels=levels, errors=errors)


# -- stability verifications ------------------------------------------------

def ghost_extension_ratios(disc: Discretization, side: str, order: int,
                           l: int, w_max: float, gamma_on: bool = True,
                           seed: int = 0, sampler: str = "band") -> float:
    """Max sampled ratio lhs/rhs of the ghost-extension estimate.

    lhs = |grad^l v|^2 over the computational domain Omega_i^T,
    rhs = |grad^l v|^2 over Omega_i minus the interface zone, plus the
    h-weighted sum of jump terms (dropped when gamma_on is False).

    Samples are random coefficient vectors on the interface zone: the
    "band" sampler draws one Gaussian over all cut-cell dofs per sample
    (distributed fields, used for the h-uniformity check), the "cell"
    sampler draws each sample on a single random cut cell (localized
    fields; the extension property is sharpest there, which exposes the
    blow-up when the jump terms are dropped).  Samples in the structural
    kernel of the rhs (functions vanishing identically outside the
    interface zone, where the estimate degenerates to 0 <= 0 or fails
    outright) are skipped.
    """
    if sampler not in ("band", "cell"):
        raise ValueError(f"unknown sampler {sampler!r}")
    block = {"f": {disc.cfg.m_f: "vf", disc.cfg.m_f - 1: "p"},
             "s": {disc.cfg.m_s: "vs"}}[side][order]
    kernel = SCALAR_KERNELS["value" if l == 0 else "gradient"]
    dm = disc.dofmap(block)
    # all three forms on one pattern: the rhs is a sum of data arrays
    pattern = Pattern(disc, block, block, cells=dm.cells,
                      faces=disc.topo.ghost_faces(side))
    M_comp = assemble_cells(disc, kernel, block, dm.cells, pattern)
    rhs = assemble_cells(disc, kernel, block, disc.topo.uncut_cells(side), pattern).data
    if gamma_on:
        raws = raw_jump_matrices(disc, side, order, w_max=w_max, pattern=pattern)
        rhs = rhs + ghost_data(raws, l, disc.h)
    # the samples vanish off the cut cells' dofs (the band): both forms act on it only
    cut_dofs = dm.cell_dofs[dm.cell_index[disc.topo.cut_cells]]  # (ncut, nb)
    band = np.unique(cut_dofs)
    local = np.searchsorted(band, cut_dofs)
    rng = np.random.default_rng(seed)
    V = np.zeros((GHOST_SAMPLES, len(band)))  # one sample per row
    if sampler == "band":
        # a band sample is one draw over the cut cells' dofs in cell order; a
        # dof shared by several cut cells keeps the value drawn for its last cell
        flat = local.ravel()
        last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
        V[:, flat[last]] = rng.standard_normal((GHOST_SAMPLES, len(flat)))[:, last]
    else:
        for v in V:
            ids = local[rng.integers(len(local))]
            v[ids] = rng.standard_normal(len(ids))
    lhs = np.einsum("ij,ji->i", V, M_comp[band][:, band] @ V.T)
    rhs = np.einsum("ij,ji->i", V, pattern.matrix(rhs)[band][:, band] @ V.T)
    keep = rhs > 1e-13 * lhs
    return float(np.max(lhs[keep] / rhs[keep], initial=0.0))


def random_smooth_state(disc: Discretization, seed: int = 0) -> State:
    """Interpolants of random low-frequency fields, zero on the fluid boundary."""
    rng = np.random.default_rng(seed)
    lay = disc.layout
    x = np.zeros(lay.total)

    def smooth_field(coords):
        val = np.zeros(len(coords))
        for _ in range(4):
            kx, ky = rng.integers(1, 3, size=2)
            ph = rng.uniform(0, 2 * np.pi, size=2)
            amp = rng.normal()
            val += amp * np.sin(0.5 * np.pi * kx * coords[:, 0] + ph[0]) \
                * np.sin(0.5 * np.pi * ky * coords[:, 1] + ph[1])
        return 0.1 * val

    for block in ("vf", "p", "vs", "u"):
        dm = disc.dofmap(block)
        off = lay.offset(block)
        for c in range(dm.ncomp):
            vals = smooth_field(dm.node_coords)
            if block == "vf":
                vals[dm.dirichlet_nodes] = 0.0
            x[off + c * dm.n_scalar:(off + (c + 1) * dm.n_scalar)] = vals
    return State(index=0, t=0.0, x=x)


def verify_energy_decay(disc: Discretization, n_steps: int = 22,
                        seed: int = 0, tol: float = 1e-9):
    """Run with zero inflow from random initial data; report Q^n decay.

    Returns (ok, history, first_violation) where history is the list of
    Q^n values, monitored from the first computed step onward.
    """
    stepper = TimeStepper(disc)
    stepper.g_profile = np.zeros_like(stepper.g_profile)
    ana = Analyzer(disc, stepper.forms)
    state = random_smooth_state(disc, seed=seed)
    history = []
    q0 = None
    violation = None
    for _ in range(n_steps):
        state = stepper.step(state)
        q = ana.lyapunov(state)
        history.append(q)
        if q0 is None:
            q0 = q
        elif q > history[-2] + tol * max(q0, 1.0e-300) and violation is None:
            violation = state.index
    return violation is None, history, violation

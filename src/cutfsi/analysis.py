"""Error norms, convergence orders, energy functionals and stability checks.

Space-time norms accumulate per-step squared norms weighted by k.  Errors
against a reference run are evaluated at the points of ``domain_points``
on the coarse mesh (nested meshes make reference cell lookup exact).
``verify_checks`` yields the checks of ``cutfsi verify``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (SCALAR_KERNELS, Forms, assemble_cells, ghost_data, pattern,
                       raw_jump_matrices)
from .config import ConfigError
from .discretization import Discretization
from .mesh import verify_path_assumption
from .stepper import RUN_FIELDS, State, TimeStepper

ERROR_NORMS = ("vf_T", "vs_T", "grad_u_T", "grad_vf_I", "h_grad_p_I")
# Each refinement study's level key, ratio of one level to the next, and label.
STUDY_MODES = {"space": ("n", 2, "h"), "time": ("k", 0.5, "k")}
# The configuration fields that ``verify_checks`` sets itself.
VERIFY_FIELDS = ("n", *RUN_FIELDS)
# Random samples per ghost-extension ratio.
GHOST_SAMPLES = 100
# Steps of the energy-decay check, and the growth of Q^n it forgives,
# relative to Q^1.
DECAY_STEPS, DECAY_TOL = 22, 1e-9


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


def point_eval_matrices(disc: Discretization, block: str, pts: np.ndarray,
                        cells: np.ndarray) -> tuple[sp.csr_matrix, ...]:
    """Sparse (npts, n_scalar) maps from one component's scalar coefficients
    to its value, d/dx and d/dy at points with known cells, in that order.

    One ``Discretization.tabulate`` call gives all three; they share one
    CSR index set (row i holds the dofs of cells[i]).  ValueError if a
    point's cell is outside the block's subtriangulation.
    """
    dm = disc.dofmap(block)
    rows = dm.cell_index[cells]
    if np.any(rows < 0):
        raise ValueError(f"{np.count_nonzero(rows < 0)} points fall outside the "
                         f"subtriangulation of block {block}")
    value, *grad = disc.tabulate(dm.order, cells, pts)
    npts, nb = value.shape
    E = sp.csr_matrix((value.ravel(), dm.cell_dofs[rows].ravel(),
                       np.arange(0, npts * nb + 1, nb)), shape=(npts, dm.n_scalar))
    for a in (E.indices, E.indptr):  # shared below, so never sorted in place
        a.setflags(write=False)
    return (E, *(sp.csr_matrix((t.ravel(), E.indices, E.indptr), shape=E.shape)
                 for t in grad))


# -- quadrature point sets over the physical subdomains ---------------------

def domain_points(disc: Discretization, side: str):
    """(points, weights, cells) covering Omega_i: the shared 3 x 3 Gauss
    rule on the uncut cells and the polar rules of ``disc.cut_parts`` on
    the cut parts.  Only the checks and the error norms use these points;
    the forms integrate the cut parts on ``disc.cut_nodes``."""
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
        # the block's pattern also couples across the ghost faces, where
        # these matrices are zero, so they keep their nonzeros only
        self.mass_s_T, self.grad_s_T, self.grad_vf_T = (
            pattern(disc, b, b).compact(assemble_cells(disc, kernel, b, disc.dofmap(b).cells))
            for kernel, b in ((value, "vs"), (gradient, "vs"), (gradient, "vf")))

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


# -- errors against a nested reference run ----------------------------------

def _check_nested(n_c: int, n_r: int) -> None:
    if n_r % n_c != 0:
        raise ConfigError(f"reference mesh n={n_r} is not a nested refinement of n={n_c}")


def error_vs_reference(disc_c: Discretization, states_c: list[State],
                       disc_r: Discretization, states_r: list[State]) -> dict:
    """Five error norms of (reference - coarse), Tables layout.

    Trajectories must share t=0..T; the reference may use a finer time grid
    (restricted to the coarse indices).  The coarse step k is read from the
    coarse states, as the levels of a temporal study share one
    ``Discretization``.  Both levels are evaluated at the
    coarse ``domain_points``: ``point_eval_matrices`` gives the value, d/dx
    and d/dy maps of a space on one shared CSR index set, once per level
    and space (v_f, p, and the solid space of v_s and u), and each map
    takes all the states of a norm in one sparse x dense product.
    """
    _check_nested(disc_c.mesh.n, disc_r.mesh.n)
    N_c = len(states_c) - 1
    N_r = len(states_r) - 1
    if min(N_c, N_r) < 1:
        raise ValueError("a trajectory needs at least one step: got "
                         f"{N_c + 1} (coarse) and {N_r + 1} (reference) states")
    if N_r % N_c != 0:
        raise ValueError("time grids are not nested")
    T_c, T_r = states_c[-1].t, states_r[-1].t
    if abs(T_c - T_r) > 1e-9 * abs(T_r):
        raise ValueError(f"trajectories end at different times: t={T_c:g} (coarse), "
                         f"t={T_r:g} (reference)")
    ref_states = states_r[::N_r // N_c]

    points = {side: domain_points(disc_c, side) for side in ("f", "s")}
    maps = {}
    for level, disc in (("c", disc_c), ("r", disc_r)):
        for block in ("vf", "p", "vs"):
            pts, _, cells = points[disc.dofmap(block).side]
            if level == "r":
                cells = locate_cells(disc, pts)
            maps[level, block] = point_eval_matrices(disc, block, pts, cells)
        maps[level, "u"] = maps[level, "vs"]  # one solid space

    def norm(block, which, first, k=1.0):
        """sqrt(k sum w |E_r x_r - E_c x_c|^2) over the states first..N_c,
        the components and the maps ``which`` (0 value, 1 d/dx, 2 d/dy).
        The differences are scaled by 2^-e, e the exponent of the largest,
        and the root by 2^e: exact in floating point, and the squares
        neither underflow (a lid of 1e-160) nor overflow (1e154)."""
        coefs = {}
        for level, disc, states in (("c", disc_c, states_c), ("r", disc_r, ref_states)):
            X = np.stack([s.x[disc.layout.slice(block)] for s in states[first:]])
            coefs[level] = X.reshape(-1, disc.dofmap(block).n_scalar).T  # a column per component
        diffs = [maps["r", block][m] @ coefs["r"] - maps["c", block][m] @ coefs["c"]
                 for m in which]
        e = math.frexp(max(float(np.abs(d).max(initial=0.0)) for d in diffs))[1]
        w = points[disc_c.dofmap(block).side][1]
        return math.ldexp(float(np.sqrt(k * sum(w @ np.ldexp(d, -e) ** 2
                                                for d in diffs).sum())), e)

    k = states_c[1].t - states_c[0].t
    return {"vf_T": norm("vf", (0,), N_c),
            "vs_T": norm("vs", (0,), N_c),
            "grad_u_T": norm("u", (1, 2), N_c),
            "grad_vf_I": norm("vf", (1, 2), 1, k),
            "h_grad_p_I": disc_c.h * norm("p", (1, 2), 1, k)}


@dataclass
class ErrorReport:
    """Per-level errors and the orders between consecutive levels, taken when it
    is built; ConfigError, naming the norm and level, if an error is not normal."""

    mode: str                 # a key of STUDY_MODES
    levels: list[float]       # h or k per level
    errors: list[dict]        # one dict per level, keys ERROR_NORMS

    def __post_init__(self):
        self.label = STUDY_MODES[self.mode][2]  # of the levels, h or k
        pairs = list(zip(self.errors[:-1], self.errors[1:]))
        # an error that is 0 (a lid at rest), not finite, or subnormal (its
        # round-off is of its own size) has no order; a single level has none
        for level, errors in zip(self.levels, self.errors if pairs else []):
            for key in ERROR_NORMS:
                if not sys.float_info.min <= errors[key] < math.inf:
                    raise ConfigError(f"the {key} error at {self.label}={level:g} is "
                                      f"{errors[key]:g}, so no order can be measured")
        self._orders = [{key: convergence_order(coarse[key], fine[key]) for key in ERROR_NORMS}
                        for coarse, fine in pairs]

    def orders(self) -> list[dict]:
        """The orders between consecutive levels."""
        return self._orders


def _trajectory(disc: Discretization, cfg) -> list[State]:
    """Every state, from the zero state at t = 0 to T, of the run of
    ``TimeStepper(disc, cfg)``."""
    stepper = TimeStepper(disc, cfg)
    s0 = stepper.initialize()
    return [s0, *stepper.run(s0, stepper.cfg.n_steps)]


def run_simulation(cfg):
    """Build a discretization and run ``TimeStepper.run`` from the zero state
    to T; returns (disc, the states of the steps, every state from t = 0)."""
    disc = Discretization(cfg)
    states = _trajectory(disc, cfg)
    return disc, states[1:], states


def study_configs(mode: str, base_cfg, levels, ref) -> tuple:
    """(reference config, level configs) of a study of ``mode`` whose levels
    and ref set its ``STUDY_MODES`` key; a mesh n may be a whole float.
    ConfigError if the lid is at rest, or at the first level, coarsest
    first, that the reference does not nest in and refine."""
    if base_cfg.peak_inflow == 0:
        raise ConfigError("peak_inflow = 0 drives no flow, so every error is 0 "
                          "and no order can be measured")
    key = STUDY_MODES[mode][0]
    mesh = key == "n"  # a level is a whole number of cells, not a step
    if mesh and isinstance(ref, float) and not ref.is_integer():
        raise ConfigError(f"reference mesh n must be a whole number of cells, got {ref:g}")
    cfg_r, cfgs = base_cfg.replace(**{key: int(ref) if mesh else ref}), []
    for level in levels:
        cfg = base_cfg.replace(**{key: level})
        _check_nested(cfg.n, cfg_r.n)
        if cfg_r.n_steps % cfg.n_steps != 0:
            raise ConfigError(f"reference step k={ref:g} does not divide k={cfg.k:g}")
        if (cfg_r.n, cfg_r.n_steps) == (cfg.n, cfg.n_steps):
            raise ConfigError(f"reference mesh n={cfg_r.n} is not finer than n={cfg.n}" if mesh
                              else f"reference step k={ref:g} is not finer than k={cfg.k:g}")
        cfgs.append(cfg)
    return cfg_r, cfgs


def spatial_study(base_cfg, n_levels: list[int], n_ref: int) -> ErrorReport:
    """Errors of a sequence of mesh levels against one fine reference run."""
    return run_study("space", *study_configs("space", base_cfg, n_levels, n_ref))


def temporal_study(base_cfg, k_levels: list[float], k_ref: float) -> ErrorReport:
    """Errors of a sequence of step sizes against a fine-step reference run."""
    return run_study("time", *study_configs("time", base_cfg, k_levels, k_ref))


def run_study(mode: str, cfg_r, cfgs) -> ErrorReport:
    """Run the reference of ``study_configs``, then each level against it;
    a level is its h or k, as ``STUDY_MODES`` labels ``mode``.  A level on
    the reference's mesh runs on the reference's ``Discretization``."""
    disc_r = Discretization(cfg_r)
    states_r = _trajectory(disc_r, cfg_r)
    errors = []
    for cfg in cfgs:
        disc_c = disc_r if cfg.n == cfg_r.n else Discretization(cfg)
        errors.append(error_vs_reference(disc_c, _trajectory(disc_c, cfg), disc_r, states_r))
    return ErrorReport(mode, [getattr(cfg, STUDY_MODES[mode][2]) for cfg in cfgs], errors)


# -- stability verifications ------------------------------------------------

@dataclass(frozen=True)
class GhostBand:
    """The forms of the ghost-extension estimate of one space, restricted
    to its band: the dofs of the cut cells, in ascending order.

    ``lhs[l]`` is |grad^l v|^2 over every cell of the side, ``rhs[l]`` the
    same over its uncut cells plus, if the jump terms are on, the
    h-weighted jumps of ``ghost_data``, for l = 0 and 1.  ``local`` (ncut,
    nb) holds the band index of each cut cell's dofs.
    """

    local: np.ndarray
    lhs: tuple[sp.csr_matrix, sp.csr_matrix]
    rhs: tuple[sp.csr_matrix, sp.csr_matrix]


def ghost_band(disc: Discretization, side: str, order: int, w_max: float,
               gamma_on: bool) -> GhostBand:
    """The ``GhostBand`` of a space, built on the first call and held by
    ``disc`` per (side, order, w_max, gamma_on).

    An entry of a band row and a band column gets its terms from the cells
    and ghost faces that hold both dofs, so the forms are summed on the
    space's pattern over the cells that touch the band and the ghost faces
    (each of which has a cut cell), in the order of the side's cells and
    faces, which gives every band entry the same sum as on the whole side.
    One map takes the band block out of each data array.
    """
    key = (side, order, w_max, gamma_on)
    if key in disc.ghost_bands:
        return disc.ghost_bands[key]
    block = _ghost_block(disc, side, order)
    dm = disc.dofmap(block)
    cut_dofs = dm.cell_dofs[dm.cell_index[disc.topo.cut_cells]]  # (ncut, nb)
    band = np.unique(cut_dofs)
    in_band = np.zeros(dm.n_scalar, dtype=bool)
    in_band[band] = True

    def touching(cells):
        return cells[in_band[dm.cell_dofs[dm.cell_index[cells]]].any(axis=1)]

    cells, uncut = touching(dm.cells), touching(disc.topo.uncut_cells(side))
    P = pattern(disc, block, block)
    rows = np.repeat(np.arange(dm.n_scalar), np.diff(P.indptr))
    take = np.flatnonzero(in_band[rows] & in_band[P.indices])
    indices = np.searchsorted(band, P.indices[take])
    indptr = np.searchsorted(rows[take], np.append(band, dm.n_scalar))

    def restrict(data):
        return sp.csr_matrix((data[take], indices, indptr), shape=(len(band),) * 2)

    raws = raw_jump_matrices(disc, block, w_max=w_max) if gamma_on else ()
    lhs, rhs = [], []
    for l, kernel in enumerate((SCALAR_KERNELS["value"], SCALAR_KERNELS["gradient"])):
        lhs.append(restrict(assemble_cells(disc, kernel, block, cells)))
        data = assemble_cells(disc, kernel, block, uncut)
        rhs.append(restrict(data + ghost_data(raws, l, disc.h) if gamma_on else data))
    disc.ghost_bands[key] = GhostBand(np.searchsorted(band, cut_dofs), tuple(lhs), tuple(rhs))
    return disc.ghost_bands[key]


def _ghost_block(disc: Discretization, side: str, order: int) -> str:
    """The block of the space of ``order`` on ``side``; ValueError if none."""
    if side not in ("f", "s"):
        raise ValueError(f"unknown side {side!r}")
    blocks = ({disc.cfg.m_f: "vf", disc.cfg.m_f - 1: "p"} if side == "f"
              else {disc.cfg.m_s: "vs"})
    if order not in blocks:
        raise ValueError(f"side {side!r} has no space of order {order!r}")
    return blocks[order]


def ghost_extension_ratios(disc: Discretization, side: str, order: int,
                           l: int, w_max: float, gamma_on: bool = True,
                           seed: int = 0, sampler: str = "band") -> float:
    """Max sampled ratio lhs/rhs of the ghost-extension estimate.

    lhs = |grad^l v|^2 over the computational domain Omega_i^T,
    rhs = |grad^l v|^2 over Omega_i minus the interface zone, plus the
    h-weighted sum of jump terms (dropped when gamma_on is False).  Both
    forms come from the space's ``GhostBand``, built once per
    discretization.

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
    _ghost_block(disc, side, order)
    if l not in (0, 1):
        raise ValueError(f"l must be 0 or 1, got {l!r}")
    if sampler not in ("band", "cell"):
        raise ValueError(f"unknown sampler {sampler!r}")
    band = ghost_band(disc, side, order, w_max, gamma_on)
    local, nband = band.local, band.lhs[l].shape[0]
    rng = np.random.default_rng(seed)
    if sampler == "band":  # one draw per band dof, a column per sample
        V = rng.standard_normal((nband, GHOST_SAMPLES))
    else:
        V = np.zeros((nband, GHOST_SAMPLES))
        for j in range(GHOST_SAMPLES):
            ids = local[rng.integers(len(local))]
            V[ids, j] = rng.standard_normal(len(ids))
    lhs = np.einsum("ij,ij->j", V, band.lhs[l] @ V)
    rhs = np.einsum("ij,ij->j", V, band.rhs[l] @ V)
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
    return State(n=0, t=0.0, x=x)


def verify_energy_decay(disc: Discretization, n_steps: int = DECAY_STEPS,
                        seed: int = 0, tol: float = DECAY_TOL):
    """Run with zero inflow from random initial data; report Q^n decay.

    The run steps ``disc`` itself, with its configuration's k and
    ``peak_inflow = 0``.  Returns (ok, history, first_violation) where
    history is the list of Q^n values, monitored from the first computed
    step onward.
    """
    stepper = TimeStepper(disc, disc.cfg.replace(peak_inflow=0.0))
    return _decay(stepper, random_smooth_state(disc, seed=seed), n_steps, tol)


def _decay(stepper: TimeStepper, start: State, n_steps: int, tol: float):
    """(ok, history, first_violation) of ``verify_energy_decay`` for the
    run of ``stepper`` from ``start``."""
    history = [stepper.lyapunov(s) for s in stepper.run(start, n_steps)]
    # the first step n, with history[n - 1] its Q^n, whose Q^n grew
    violation = next((n for n, (prev, q) in enumerate(zip(history, history[1:]), start=2)
                      if q > prev + tol * max(history[0], 1.0e-300)), None)
    return violation is None, history, violation


def verify_checks(cfg):
    """The checks of ``cutfsi verify``, one (label, ok, detail) record each,
    yielded as it runs: exact cut geometry and ghost-face paths, bounded
    ghost-extension ratios with the jump terms and unbounded ones without,
    both from the ghost draws of seed 0, and energy decay from the random
    data of seeds 0-4.

    The checks run on n = 8, 16 and 32.  Each mesh takes the decay check's
    run, k = 1/2 and T = 11 for the 22 steps of ``verify_energy_decay``,
    in place of the ``VERIFY_FIELDS`` of ``cfg``.  The five decay runs
    start from seeds 0-4 on one lid-free stepper of the n = 8 mesh, so
    its step system is assembled and factorized once.
    """
    exact_area = np.pi * cfg.radius_squared
    exact_len = 2.0 * np.pi * float(np.sqrt(cfg.radius_squared))
    discs = [Discretization(cfg.replace(n=n, k=0.5, T=11.0)) for n in (8, 16, 32)]
    for disc in discs:
        n = disc.mesh.n
        area = float(np.sum(domain_points(disc, "s")[1]))
        length = disc.iface_rules.total
        yield (f"n={n} solid area", abs(area - exact_area) < 1e-8,
               f"error {abs(area - exact_area):.2e}")
        yield (f"n={n} interface length", abs(length - exact_len) < 1e-10,
               f"error {abs(length - exact_len):.2e}")
        for side in ("f", "s"):
            label = f"n={n} ghost path assumption ({side})"
            try:
                plen, _ = verify_path_assumption(disc.topo, side)
            except RuntimeError as exc:
                yield label, False, str(exc)
            else:
                yield label, True, f"max path length {plen}"

    # the extension estimate: ratios stay bounded under refinement
    for side, order in (("f", cfg.m_f), ("f", cfg.m_f - 1), ("s", cfg.m_s)):
        for l in (0, 1):
            ratios = [ghost_extension_ratios(disc, side, order, l, cfg.w_max)
                      for disc in discs]
            yield (f"ghost extension side={side} order={order} l={l}",
                   max(ratios) / min(ratios) <= 2.0,
                   "ratios " + ", ".join(f"{r:.3f}" for r in ratios))

    # necessity: without the jump terms no h-uniform constant exists
    ratios = [ghost_extension_ratios(disc, "f", cfg.m_f, 1, cfg.w_max, gamma_on=False,
                                     sampler="cell") for disc in discs]
    yield ("ghost necessity (gamma=0, fluid, l=1)", max(ratios) / min(ratios) >= 5.0,
           "ratios " + ", ".join(f"{r:.1f}" for r in ratios))

    stepper = TimeStepper(discs[0], discs[0].cfg.replace(peak_inflow=0.0))
    for s in range(5):
        ok, hist, viol = _decay(stepper, random_smooth_state(discs[0], seed=s),
                                DECAY_STEPS, DECAY_TOL)
        yield (f"energy decay seed={s}", ok, f"Q drops {hist[0]:.3e} -> {hist[-1]:.3e}"
               + ("" if ok else f", violated at step {viol}"))
